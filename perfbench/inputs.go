package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"tensortee"
	"tensortee/internal/campaign"
)

// This file generates every input the workloads send. Inputs depend only
// on the seed, never on timing, so the same seed always sends the same
// requests in the same order (TestSameSeedSameInputs).

// newRand returns the harness's deterministic generator for one seed and
// one purpose (stream), so independent input streams do not shift each
// other when one of them draws more values.
func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// ---- calib-cold -----------------------------------------------------------

// calibPoint is one calib-cold input: a single-system scenario whose CPU
// side — MEE mode, metadata-cache size, DRAM channels, protected region —
// is unique within the pool, so each op pays exactly one calibration.
type calibPoint struct {
	Mode     string // "sgx" or "tensor": the CPU MEE path
	Kind     string // the system kind the mode is spelled through
	MEEMode  string // explicit mee_mode override ("" when the kind implies it)
	MetaKB   int
	Channels int
	RegionMB int // 0 keeps the calibration window's own span
	Model    string
}

// Pool axes. Channels include non-power-of-two counts (the DRAM model's
// per-line fallback); region sizes above 64 MB deepen the metadata
// layout beyond the calibration window.
var (
	calibModes    = []string{"sgx", "tensor"}
	calibChannels = []int{1, 2, 3, 4, 5, 6}
	calibMetaKB   = []int{16, 64, 256}
	calibRegionMB = []int{0, 256, 1024}
)

// calibWindowMB is the calibration window: region_mb values above it
// change the metadata layout the calibration simulates.
const calibWindowMB = 64

// calibWarmup is the set-up op's input. Its CPU side (a 48 KB metadata
// cache) is outside the pool, so no timed op reuses its calibration.
var calibWarmup = calibPoint{Mode: "sgx", Kind: "sgx-mgx", MetaKB: 48, Channels: 2, Model: "GPT2-M"}

// calibPool lists every calib-cold input in a fixed order.
func calibPool() []calibPoint {
	models := tensortee.ModelNames()
	var pool []calibPoint
	for _, mode := range calibModes {
		for _, ch := range calibChannels {
			for _, kb := range calibMetaKB {
				for _, reg := range calibRegionMB {
					i := len(pool)
					p := calibPoint{Mode: mode, MetaKB: kb, Channels: ch, RegionMB: reg, Model: models[i%len(models)]}
					// Spell the mode both ways across the pool: through the
					// kind's default, and as an explicit override.
					switch {
					case mode == "sgx" && i%2 == 0:
						p.Kind = "sgx-mgx"
					case mode == "sgx":
						p.Kind, p.MEEMode = "tensortee", "sgx"
					case i%2 == 0:
						p.Kind = "tensortee"
					default:
						p.Kind, p.MEEMode = "sgx-mgx", "tensor"
					}
					pool = append(pool, p)
				}
			}
		}
	}
	return pool
}

// cpuKey names the CPU-side projection calibration reads. It keys the
// committed simulated-statistics digest.
func (p calibPoint) cpuKey() string {
	return fmt.Sprintf("%s/mc%d/ch%d/r%d", p.Mode, p.MetaKB, p.Channels, p.RegionMB)
}

// key names the whole input (CPU side plus model); it keys the committed
// result digest.
func (p calibPoint) key() string { return p.cpuKey() + "/" + p.Model }

func (p calibPoint) nonPow2Channels() bool { return p.Channels&(p.Channels-1) != 0 }

func (p calibPoint) regionAboveWindow() bool { return p.RegionMB > calibWindowMB }

// classes are the input properties that change what a calibration costs;
// calibOrder balances every one of them along the op sequence.
func (p calibPoint) classes() []string {
	return []string{
		"mode=" + p.Mode,
		fmt.Sprintf("ch=%d", p.Channels),
		fmt.Sprintf("mc=%d", p.MetaKB),
		fmt.Sprintf("region=%d", p.RegionMB),
		fmt.Sprintf("mode=%s,ch=%d", p.Mode, p.Channels),
		fmt.Sprintf("mode=%s,region=%d", p.Mode, p.RegionMB),
	}
}

func (p calibPoint) spec() tensortee.Scenario {
	ov := &tensortee.ScenarioOverrides{MEEMode: p.MEEMode, MetaCacheKB: p.MetaKB, DRAMChannels: p.Channels, RegionMB: p.RegionMB}
	return tensortee.Scenario{
		Name:    "calib-cold",
		Model:   tensortee.ScenarioModel{Name: p.Model},
		Systems: []tensortee.ScenarioSystem{{Kind: p.Kind, Overrides: ov}},
	}
}

// calibOrder is the seeded op sequence: the whole pool, each entry once
// (drawn without replacement). Each next op is the remaining entry that
// keeps every input class (calibPoint.classes) closest to its pool share,
// ties broken by the seed. Every prefix therefore holds nearly the same
// mix, so a run that stops after n ops measures the same inputs whatever
// the seed — only which entry stands for a class changes.
func calibOrder(seed int64) []calibPoint {
	r := newRand(seed, 1)
	left := calibPool()
	r.Shuffle(len(left), func(i, j int) { left[i], left[j] = left[j], left[i] })
	share := map[string]float64{}
	for _, p := range left {
		for _, c := range p.classes() {
			share[c] += 1 / float64(len(left))
		}
	}
	count := map[string]float64{}
	out := make([]calibPoint, 0, len(left))
	for len(left) > 0 {
		n := float64(len(out) + 1)
		// Picking p moves the summed squared deviation of all class counts
		// from their shares by 2*sum(count-share*n)+const over p's classes,
		// so the entry whose classes lag furthest behind wins.
		best, bestScore := 0, math.Inf(1)
		for i, p := range left {
			score := 0.0
			for _, c := range p.classes() {
				score += count[c] - share[c]*n
			}
			if score < bestScore {
				best, bestScore = i, score
			}
		}
		p := left[best]
		left = append(left[:best], left[best+1:]...)
		for _, c := range p.classes() {
			count[c]++
		}
		out = append(out, p)
	}
	return out
}

// ---- npu-campaign ---------------------------------------------------------

// npuAxes are the NPU and interconnect knobs the campaigns cross. None of
// them is read by CPU calibration.
var npuAxes = []campaign.Axis{
	{Axis: "npu_aes_engines", Values: []float64{1, 2, 4}},
	{Axis: "npu_bandwidth_gbs", Values: []float64{64, 128, 256}},
	{Axis: "link_gbs", Values: []float64{16, 26, 32}},
	{Axis: "staging_gbs", Values: []float64{6, 12, 24}},
	{Axis: "mac_gran_bytes", Values: []float64{64, 256, 1024}},
}

// campaignModel is the workload every campaign point trains.
const campaignModel = "GPT2-M"

// campaignSystems are the systems every point compares.
var campaignSystems = []string{"sgx-mgx", "tensortee"}

// npuPoint is one campaign point: one value per NPU axis.
type npuPoint [5]float64

func (p npuPoint) key() string {
	return fmt.Sprintf("aes%g/bw%g/link%g/stg%g/gran%g", p[0], p[1], p[2], p[3], p[4])
}

// npuPool lists every point any campaign can run.
func npuPool() []npuPoint {
	var pool []npuPoint
	var rec func(a int, cur npuPoint)
	rec = func(a int, cur npuPoint) {
		if a == len(npuAxes) {
			pool = append(pool, cur)
			return
		}
		for _, v := range npuAxes[a].Values {
			cur[a] = v
			rec(a+1, cur)
		}
	}
	rec(0, npuPoint{})
	return pool
}

// npuCampaign is one grid: one axis held in the base spec, the other four
// crossed over two values each (16 points).
type npuCampaign struct {
	Fixed  int     // index of the axis held constant
	Value  float64 // its value
	Values [5][]float64
}

// points enumerates the campaign's points in the campaign manager's
// row-major order (last axis fastest).
func (c npuCampaign) points() []npuPoint {
	var out []npuPoint
	var rec func(a int, cur npuPoint)
	rec = func(a int, cur npuPoint) {
		if a == len(npuAxes) {
			out = append(out, cur)
			return
		}
		if a == c.Fixed {
			cur[a] = c.Value
			rec(a+1, cur)
			return
		}
		for _, v := range c.Values[a] {
			cur[a] = v
			rec(a+1, cur)
		}
	}
	rec(0, npuPoint{})
	return out
}

// spec renders the campaign submission.
func (c npuCampaign) spec() campaign.Spec {
	base := tensortee.Scenario{Name: campaignName, Model: tensortee.ScenarioModel{Name: campaignModel}}
	for _, k := range campaignSystems {
		ov := &tensortee.ScenarioOverrides{}
		applyNPUAxis(ov, c.Fixed, c.Value)
		base.Systems = append(base.Systems, tensortee.ScenarioSystem{Kind: k, Overrides: ov})
	}
	sp := campaign.Spec{Name: campaignName, Base: base}
	for a, ax := range npuAxes {
		if a != c.Fixed {
			sp.Axes = append(sp.Axes, campaign.Axis{Axis: ax.Axis, Values: c.Values[a]})
		}
	}
	return sp
}

func applyNPUAxis(ov *tensortee.ScenarioOverrides, axis int, v float64) {
	switch axis {
	case 0:
		ov.NPUAESEngines = int(v)
	case 1:
		ov.NPUBandwidthGBs = v
	case 2:
		ov.LinkGBs = v
	case 3:
		ov.StagingGBs = v
	default:
		ov.MACGranBytes = int(v)
	}
}

// npuWarmup is the set-up campaign: one point whose engine count (3) is
// outside the pool, so its two calibrations are never reused.
var npuWarmup = campaign.Spec{
	Name: campaignName,
	Base: tensortee.Scenario{
		Name:    campaignName,
		Model:   tensortee.ScenarioModel{Name: campaignModel},
		Systems: []tensortee.ScenarioSystem{{Kind: "sgx-mgx"}, {Kind: "tensortee"}},
	},
	Axes: []campaign.Axis{{Axis: "npu_aes_engines", Values: []float64{3}}},
}

// npuWarmupKey is the warm-up point's key (Table-1 defaults elsewhere).
var npuWarmupKey = npuPoint{3, 128, 26, 12, 64}.key()

// npuCampaigns draws up to n campaigns whose points are pairwise
// distinct, so no point of a run shares a configuration with another.
// It returns fewer when the pool runs out of disjoint grids.
func npuCampaigns(seed int64, n int) []npuCampaign {
	r := newRand(seed, 2)
	used := map[string]bool{}
	var out []npuCampaign
	for tries := 0; len(out) < n && tries < 10000; tries++ {
		var c npuCampaign
		c.Fixed = r.IntN(len(npuAxes))
		c.Value = npuAxes[c.Fixed].Values[r.IntN(3)]
		for a, ax := range npuAxes {
			if a == c.Fixed {
				continue
			}
			perm := r.Perm(len(ax.Values))
			c.Values[a] = []float64{ax.Values[perm[0]], ax.Values[perm[1]]}
		}
		fresh := true
		for _, p := range c.points() {
			if used[p.key()] {
				fresh = false
				break
			}
		}
		if !fresh {
			continue
		}
		for _, p := range c.points() {
			used[p.key()] = true
		}
		out = append(out, c)
	}
	return out
}

// ---- serve-mixed ----------------------------------------------------------

// serveExperiments are the experiments the warm set holds: every
// registered one except fig18 and fig19, whose 7-15 s computes would
// dominate set-up.
func serveExperiments() []string {
	var ids []string
	for _, id := range tensortee.ExperimentIDs() {
		if id != "fig18" && id != "fig19" {
			ids = append(ids, id)
		}
	}
	return ids
}

// serveSpecCount is the scenario working set: twice the server's
// 256-entry scenario memory cache, so most warm scenario requests are
// served from disk.
const serveSpecCount = 512

// serveSpecs lists the working set. Every spec runs the two Table-1
// default secure systems, so the set-up warm calibrates them once and the
// scenarios themselves only time training steps.
func serveSpecs() []tensortee.Scenario {
	models := tensortee.ModelNames()
	layers := []int{0, 6, 12, 24}
	batch := []int{1, 2, 4, 8}
	seqlen := []int{512, 1024, 2048}
	out := make([]tensortee.Scenario, serveSpecCount)
	for i := range out {
		out[i] = tensortee.Scenario{
			Name: fmt.Sprintf("serve-%03d", i),
			Model: tensortee.ScenarioModel{
				Name:   models[i%12],
				Layers: layers[(i/12)%4],
				Batch:  batch[(i/48)%4],
				SeqLen: seqlen[(i/192)%3],
			},
			Systems: []tensortee.ScenarioSystem{{Kind: "sgx-mgx"}, {Kind: "tensortee"}},
		}
	}
	return out
}

// serveKind classifies one serve-mixed request.
type serveKind int

const (
	reqExperiment   serveKind = iota // GET /v1/experiments/{id}
	reqRevalidate                    // conditional GET with the current ETag: 304
	reqStaleTag                      // conditional GET with an outdated ETag: 200
	reqScenarioPost                  // warm POST /v1/scenarios
	reqScenarioGet                   // GET /v1/scenarios/{fp}
)

// serveKindNames names each kind in the printed shares.
var serveKindNames = [...]string{
	reqExperiment:   "experiment_get",
	reqRevalidate:   "revalidate_304",
	reqStaleTag:     "stale_etag_get",
	reqScenarioPost: "scenario_post",
	reqScenarioGet:  "scenario_get",
}

func (k serveKind) String() string { return serveKindNames[k] }

// serveReq is one generated request. Index picks the experiment (for the
// experiment kinds) or the working-set spec (for the scenario kinds).
type serveReq struct {
	Kind   serveKind
	Index  int
	Format string // "json", "text" or "csv" (experiments)
	Gzip   bool
	OnSpec bool // conditional request against a scenario, not an experiment
}

// scenario reports whether the request targets a working-set scenario.
func (q serveReq) scenario() bool {
	return q.OnSpec || q.Kind == reqScenarioPost || q.Kind == reqScenarioGet
}

// serveStream returns the request generator of one client. The weights
// of the request kinds are assumptions, not measurements: no trace of
// real traffic exists to derive them from. They give each route family
// of the mix a comparable share — experiment GETs 35%, conditional GETs
// 20% (304 revalidations 15%, outdated-ETag GETs 5%), scenario POSTs 23%
// and GETs 22% — and every run prints the share each kind actually got
// (serveInst.shares).
func serveStream(seed int64, client int) func() serveReq {
	r := newRand(seed, 16+uint64(client))
	nExp := len(serveExperiments())
	formats := []string{"json", "text", "csv"}
	return func() serveReq {
		q := serveReq{Gzip: r.IntN(2) == 0}
		switch x := r.IntN(100); {
		case x < 35:
			q.Kind, q.Index, q.Format = reqExperiment, r.IntN(nExp), formats[r.IntN(3)]
		case x < 50:
			q.Kind, q.OnSpec = reqRevalidate, r.IntN(2) == 0
		case x < 55:
			q.Kind, q.OnSpec = reqStaleTag, r.IntN(2) == 0
		case x < 78:
			q.Kind = reqScenarioPost
		default:
			q.Kind = reqScenarioGet
		}
		switch {
		case q.scenario():
			q.Index = r.IntN(serveSpecCount)
		case q.Kind != reqExperiment:
			q.Index = r.IntN(nExp)
		}
		return q
	}
}
