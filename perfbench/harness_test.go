package main

import (
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"testing"
	"time"

	"tensortee/internal/campaign"
	"tensortee/internal/core"
	"tensortee/internal/scenario"
)

// TestSameSeedSameInputs pins determinism: the same seed generates
// byte-identical inputs, and another seed generates different ones.
func TestSameSeedSameInputs(t *testing.T) {
	gen := func(seed int64) []byte {
		var reqs []serveReq
		for c := 0; c < serveClients; c++ {
			next := serveStream(seed, c)
			for i := 0; i < 2000; i++ {
				reqs = append(reqs, next())
			}
		}
		var specs []campaign.Spec
		for _, c := range npuCampaigns(seed, npuCampaignsPerRun) {
			specs = append(specs, c.spec())
		}
		var calib []any
		for _, p := range calibOrder(seed) {
			calib = append(calib, p.spec())
		}
		b, err := json.Marshal([]any{calib, specs, reqs, serveSpecs()})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b, c := gen(7), gen(7), gen(8)
	if string(a) != string(b) {
		t.Fatal("seed 7 generated different inputs on two calls")
	}
	if string(a) == string(c) {
		t.Fatal("seeds 7 and 8 generated identical inputs")
	}
}

// TestCalibColdNeverReusesCalibration checks that every op's CPU side —
// all that calibration reads — is distinct from every other op's and
// from the warm-up's, so each op pays exactly one fresh calibration.
func TestCalibColdNeverReusesCalibration(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		order := calibOrder(seed)
		if len(order) != len(calibPool()) {
			t.Fatalf("seed %d: order has %d ops, pool %d", seed, len(order), len(calibPool()))
		}
		seen := map[string]bool{calibWarmup.cpuKey(): true}
		for _, p := range order {
			plan, err := scenario.Compile(p.spec())
			if err != nil {
				t.Fatalf("%s: %v", p.key(), err)
			}
			cfgs := plan.Points[0].Configs
			if len(cfgs) != 1 {
				t.Fatalf("%s: %d systems, want 1", p.key(), len(cfgs))
			}
			key := cpuKeyOf(cfgs[0])
			if key != p.cpuKey() {
				t.Fatalf("%s: compiled CPU side %s", p.key(), key)
			}
			if seen[key] {
				t.Fatalf("seed %d: CPU side %s calibrated twice", seed, key)
			}
			seen[key] = true
		}
	}
}

// TestCalibOrderIsBalanced checks that every prefix of the op order
// holds each input class within two ops of its pool share, so runs of
// any seed measure nearly the same mix.
func TestCalibOrderIsBalanced(t *testing.T) {
	pool := calibPool()
	share := map[string]float64{}
	for _, p := range pool {
		for _, c := range p.classes() {
			share[c] += 1 / float64(len(pool))
		}
	}
	worst := 0.0
	for seed := int64(1); seed <= 20; seed++ {
		count := map[string]float64{}
		for i, p := range calibOrder(seed) {
			for _, c := range p.classes() {
				count[c]++
			}
			for c, f := range share {
				d := math.Abs(count[c] - f*float64(i+1))
				worst = max(worst, d)
				if d > 2 {
					t.Fatalf("seed %d, prefix %d: class %s has %.0f ops, share says %.1f", seed, i+1, c, count[c], f*float64(i+1))
				}
			}
		}
	}
	t.Logf("largest deviation from a class share over all prefixes: %.2f ops", worst)
}

// TestNPUCampaignPointsAreDistinct checks that no two points of a run
// share a configuration, and that the harness's point keys follow the
// campaign planner's own grid order.
func TestNPUCampaignPointsAreDistinct(t *testing.T) {
	cs := npuCampaigns(3, npuCampaignsPerRun)
	if len(cs) < 6 {
		t.Fatalf("only %d disjoint campaigns drawn", len(cs))
	}
	seen := map[string]bool{npuWarmupKey: true}
	for _, c := range cs {
		plan, err := campaign.Compile(c.spec())
		if err != nil {
			t.Fatal(err)
		}
		pts := c.points()
		if plan.Total != len(pts) || len(pts) != 16 {
			t.Fatalf("campaign has %d points, planner says %d", len(pts), plan.Total)
		}
		for i, p := range pts {
			spec, _, err := plan.Point(i)
			if err != nil {
				t.Fatal(err)
			}
			if got := npuKeyOf(spec); got != p.key() {
				t.Fatalf("point %d: planner spec has key %s, harness expects %s", i, got, p.key())
			}
			if seen[p.key()] {
				t.Fatalf("point %s runs twice", p.key())
			}
			seen[p.key()] = true
		}
	}
}

// TestTailRule checks that op_tail_ms leaves at least minBeyondTail
// samples beyond the reported percentile, and that it is the highest
// such percentile.
func TestTailRule(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for n := 1; n <= 1200; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64()
		}
		pct, v, ok := tail(xs)
		if n < 2*minBeyondTail {
			if ok {
				t.Fatalf("n=%d: reported p%g with too few samples", n, pct)
			}
			continue
		}
		if !ok {
			t.Fatalf("n=%d: no tail reported", n)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyondTail {
			t.Fatalf("n=%d: p%g has %d samples beyond it", n, pct, beyond)
		}
		for _, p := range tailPercentiles {
			if p <= pct {
				break
			}
			if rank := int(math.Ceil(p / 100 * float64(n))); n-rank >= minBeyondTail {
				t.Fatalf("n=%d: p%g qualifies but p%g was reported", n, p, pct)
			}
		}
	}
}

// TestRefusalCountsAsFailure checks that a 429 or 503 fails the op on
// both the cold and the warm path, whatever the body says.
func TestRefusalCountsAsFailure(t *testing.T) {
	b := &bench{log: io.Discard, digests: &digests{}}
	w := &serveInst{b: b,
		exps:  []expRef{{id: "tab1", bodies: map[string][]byte{"json": []byte("{}")}, etags: map[string]string{"json": `"x"`}}},
		specs: []specRef{{fp: "f", body: []byte("{}"), etag: `"y"`}},
	}
	cold := &calibInst{b: b}
	for _, status := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		c := newClient(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
			rw.Header().Set("ETag", `"x"`)
			rw.Header().Set("X-Cache", "compute")
			rw.WriteHeader(status)
			rw.Write([]byte("{}"))
		}))
		for _, q := range []serveReq{{Kind: reqExperiment, Format: "json"}, {Kind: reqScenarioPost}, {Kind: reqRevalidate}} {
			w.send(c, q)
			if w.check(c, q) {
				t.Fatalf("status %d on %+v counted as a success", status, q)
			}
		}
		c.do("POST", "/v1/scenarios", []byte("{}"), nil)
		if cold.check(calibPool()[0], c.rec) {
			t.Fatalf("status %d on a cold scenario counted as a success", status)
		}
	}
	if b.failures == 0 {
		t.Fatal("refusals were not recorded as failures")
	}
}

// TestStaleValidatorMustNotRevalidate checks that a 304 answering an
// outdated ETag fails the op.
func TestStaleValidatorMustNotRevalidate(t *testing.T) {
	b := &bench{log: io.Discard}
	w := &serveInst{b: b, exps: []expRef{{id: "tab1",
		bodies: map[string][]byte{"json": []byte("{}")},
		etags:  map[string]string{"json": `"cur"`, "text": `"old"`}}}}
	c := newClient(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("ETag", `"cur"`)
		rw.WriteHeader(http.StatusNotModified)
	}))
	q := serveReq{Kind: reqStaleTag}
	w.send(c, q)
	if w.check(c, q) {
		t.Fatal("304 for an outdated ETag counted as a success")
	}
}

// TestSelfTime checks that overlapping children count once.
func TestSelfTime(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{Name: "parent", ID: 0, Parent: -1, Start: 0, End: 10 * ms},
		{Name: "child", ID: 1, Parent: 0, Start: 1 * ms, End: 5 * ms},
		{Name: "child", ID: 2, Parent: 0, Start: 3 * ms, End: 7 * ms},
	}
	for _, r := range selfTimes(spans) {
		want := map[string]time.Duration{"parent": 4 * time.Millisecond, "child": 8 * time.Millisecond}[r.Name]
		if r.Self != want {
			t.Fatalf("%s: self %v, want %v", r.Name, r.Self, want)
		}
	}
}

// TestReplayMatchesCoreCalibration checks that the layer-by-layer replay
// still simulates what core.NewSystemFromConfig calibrates on, in both
// MEE modes: its makespans must give the program's snapshot bit for bit.
func TestReplayMatchesCoreCalibration(t *testing.T) {
	for _, p := range []calibPoint{calibWarmup, {Mode: "tensor", Kind: "tensortee", MetaKB: 64, Channels: 3, Model: "GPT2-M"}} {
		plan, err := scenario.Compile(p.spec())
		if err != nil {
			t.Fatal(err)
		}
		cfg := plan.Points[0].Configs[0]
		sys, err := core.NewSystemFromConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := replayCalibration(cfg, nil, 0, -1).snap, sys.Snapshot(); got != want {
			t.Fatalf("%s: replay implies %+v, core calibrated %+v", p.cpuKey(), got, want)
		}
	}
}
