package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"tensortee"
	"tensortee/internal/campaign"
	"tensortee/internal/config"
	"tensortee/internal/scenario"
	"tensortee/internal/server"
	"tensortee/internal/store"
)

// Reference data, relative to the repository root.
const (
	digestsPath = "perfbench/digests.json"
	goldenDir   = "testdata/golden"
)

// simStats are the simulated counters of one calibration replay: what the
// modelled machine did, which a pure speed-up must leave unchanged.
type simStats struct {
	Accesses   uint64 `json:"accesses"`    // stream operations replayed (steady iteration)
	DRAMLines  uint64 `json:"dram_lines"`  // data lines that reached DRAM (steady iteration)
	MakespanPS uint64 `json:"makespan_ps"` // simulated steady-iteration time
	ExtraLines uint64 `json:"extra_lines"` // off-chip metadata lines (steady iteration)
	MetaHits   uint64 `json:"meta_hits"`   // metadata-cache hits, both iterations
	MetaMisses uint64 `json:"meta_misses"`
	HitIn      uint64 `json:"hit_in"` // TenAnalyzer hit_in lookups, both iterations
	Lookups    uint64 `json:"lookups"`
}

// digests pins the program's outputs for every input any seed can draw:
// result digests per op input, and simulated statistics per CPU-side
// configuration.
type digests struct {
	CalibCold   map[string]string   `json:"calib-cold"`
	NPUCampaign map[string]string   `json:"npu-campaign"`
	ServeMixed  map[string]string   `json:"serve-mixed"`
	SimStats    map[string]simStats `json:"simstats"`
}

// digest is the short content hash outputs are compared by.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// contentDigest digests a stored result payload's tables and scalars. A
// campaign point's id, title and notes carry the campaign's axis labels,
// which depend on which axes the grid crosses, so they are left out.
func contentDigest(payload []byte) (string, error) {
	res, err := tensortee.DecodeStoredResult(payload)
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(struct {
		Tables  []tensortee.ResultTable
		Scalars map[string]float64
	}{res.Tables, res.Scalars})
	if err != nil {
		return "", err
	}
	return digest(b), nil
}

func loadDigests(path string) (*digests, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading committed digests: %w", err)
	}
	var d digests
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return &d, nil
}

// cpuKeyOf names the CPU-side projection of a configuration, in the same
// form as calibPoint.cpuKey.
func cpuKeyOf(cfg config.Config) string {
	mode := "sgx"
	switch {
	case !cfg.Secure():
		mode = "off"
	case cfg.Protection.TensorWiseCPU:
		mode = "tensor"
	}
	return fmt.Sprintf("%s/mc%d/ch%d/r%d", mode, cfg.CPU.MetaCacheSize>>10, cfg.HostDRAM.Channels, cfg.CPU.ProtectedBytes>>20)
}

// regenDigests recomputes digests.json from the current program. Run it
// only when a change is meant to alter results (the goldens would change
// with it), from the repository root:
//
//	bash perfbench/run.sh --regen-digests
func regenDigests(log io.Writer) error {
	dir, err := os.MkdirTemp(workDir, "regen-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(filepath.Join(dir, "store"), store.Options{})
	if err != nil {
		return err
	}
	runner := tensortee.NewRunner(tensortee.WithStore(st))
	h := server.New(server.Config{Runner: runner}).Handler()
	d := digests{
		CalibCold:   map[string]string{},
		NPUCampaign: map[string]string{},
		ServeMixed:  map[string]string{},
		SimStats:    map[string]simStats{},
	}
	var mu sync.Mutex
	var firstErr error
	setErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	// Served scenario bodies: calib-cold pool and the serve-mixed set.
	type job struct {
		name string
		spec tensortee.Scenario
		into map[string]string
	}
	var jobs []job
	for _, p := range calibPool() {
		jobs = append(jobs, job{p.key(), p.spec(), d.CalibCold})
	}
	for _, s := range serveSpecs() {
		jobs = append(jobs, job{s.Name, s, d.ServeMixed})
	}
	parallel(len(jobs), func(i int) {
		j := jobs[i]
		body, err := json.Marshal(j.spec)
		if err != nil {
			setErr(err)
			return
		}
		c := newClient(h)
		c.do("POST", "/v1/scenarios", body, nil)
		if c.rec.status != 200 {
			setErr(fmt.Errorf("%s: %s: %s", j.name, statusText(c.rec.status), c.rec.body.String()))
			return
		}
		mu.Lock()
		j.into[j.name] = digest(c.rec.body.Bytes())
		mu.Unlock()
	})
	fmt.Fprintf(log, "scenario digests: %d calib-cold, %d serve-mixed\n", len(d.CalibCold), len(d.ServeMixed))

	// Campaign point payloads, through the campaign planner's own point
	// materialization.
	pool := npuPool()
	parallel(len(pool), func(i int) {
		p := pool[i]
		c := npuCampaign{Fixed: 0, Value: p[0]}
		for a := 1; a < len(p); a++ {
			c.Values[a] = []float64{p[a]}
		}
		plan, err := campaign.Compile(c.spec())
		if err != nil {
			setErr(err)
			return
		}
		spec, _, err := plan.Point(0)
		if err != nil {
			setErr(err)
			return
		}
		res, _, err := runner.RunScenarioCached(context.Background(), spec)
		if err != nil {
			setErr(err)
			return
		}
		payload, err := res.EncodeStored()
		if err != nil {
			setErr(err)
			return
		}
		dg, err := contentDigest(payload)
		if err != nil {
			setErr(err)
			return
		}
		mu.Lock()
		d.NPUCampaign[p.key()] = dg
		mu.Unlock()
	})
	fmt.Fprintf(log, "campaign digests: %d\n", len(d.NPUCampaign))

	// Simulated statistics for every CPU side a probe can replay.
	cfgs := map[string]config.Config{}
	add := func(spec scenario.Spec) {
		plan, err := scenario.Compile(spec)
		if err != nil {
			setErr(err)
			return
		}
		for _, cfg := range plan.Points[0].Configs {
			cfgs[cpuKeyOf(cfg)] = cfg
		}
	}
	for _, p := range calibPool() {
		add(p.spec())
	}
	add(serveSpecs()[0])
	var keys []string
	for k := range cfgs {
		keys = append(keys, k)
	}
	parallel(len(keys), func(i int) {
		rp := replayCalibration(cfgs[keys[i]], nil, 0, -1)
		mu.Lock()
		d.SimStats[keys[i]] = rp.stats
		mu.Unlock()
	})
	fmt.Fprintf(log, "simulated-statistics digests: %d\n", len(d.SimStats))
	if firstErr != nil {
		return firstErr
	}
	out, err := json.MarshalIndent(&d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestsPath, append(out, '\n'), 0o644)
}

// parallel runs f(0..n-1) on two goroutines.
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
