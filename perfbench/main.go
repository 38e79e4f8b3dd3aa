// Command perfbench is the benchmark harness: it boots this repository's
// serving stack in-process, drives one workload closed-loop for a fixed
// time, checks every output, and prints one JSON result line. See
// README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"tensortee"
	"tensortee/internal/store"
)

// setups is how many times a run boots its workload; setup_s is the
// median, and the last boot serves the timed phase.
const setups = 3

// workDir is where a run keeps its stores and span files, relative to
// the repository root.
const workDir = ".bench_build"

// instance is one booted workload, ready for its timed phase.
type instance interface {
	// run drives the closed loop for d (tr nil: untraced).
	run(d time.Duration, tr *tracer) phase
	// probeInputs lists the inputs the layer probe replays, drawn from the
	// ops this instance ran.
	probeInputs() []probeInput
	// tensorRunner is the Runner the program under test computes with
	// now (the layer probe replays through it).
	tensorRunner() *tensortee.Runner
	// counters sums the store counters over every store the instance
	// has opened.
	counters() storeCounters
	// shares prints the run's input-property shares.
	shares(w io.Writer)
	// close stops the instance's background work. Its files stay until
	// the run ends, so no boot's deletes overlap a later boot's timing.
	close()
}

// phase is what one timed phase measured.
type phase struct {
	lat       []float64 // latency of each successful op, ms
	attempted int
	failed    int
	elapsed   time.Duration

	alloc        uint64 // bytes allocated during the phase (TotalAlloc delta)
	calibrations int    // calibration snapshots the program wrote
	writes       int64  // store writes
	diskHits     int64  // store disk-tier hits
}

func (p phase) completed() int { return p.attempted - p.failed }

// add folds another phase of the same run into p.
func (p *phase) add(q phase) {
	p.lat = append(p.lat, q.lat...)
	p.attempted += q.attempted
	p.failed += q.failed
	p.elapsed += q.elapsed
	p.alloc += q.alloc
	p.calibrations += q.calibrations
	p.writes += q.writes
	p.diskHits += q.diskHits
}

func (p phase) opsPerSec() float64 {
	if p.elapsed <= 0 {
		return 0
	}
	return float64(p.completed()) / p.elapsed.Seconds()
}

// workloads maps each workload name to its boot function.
var workloads = map[string]func(b *bench, dir string) (instance, error){
	"calib-cold":   setupCalibCold,
	"npu-campaign": setupNPUCampaign,
	"serve-mixed":  setupServeMixed,
}

// bench carries the run's settings, reference data and failure log.
type bench struct {
	workload string
	seed     int64
	digests  *digests
	log      io.Writer

	mu       sync.Mutex
	failures int
}

// fail records one failed check; the first few are printed. The caller
// counts the op as failed.
func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	if b.failures <= 20 {
		fmt.Fprintf(b.log, "FAIL: "+format+"\n", args...)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: calib-cold, npu-campaign or serve-mixed")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "1: per-layer traced run instead of the end-to-end one")
	regen := fs.Bool("regen-digests", false, "recompute perfbench/digests.json from the current program and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *regen {
		if err := regenDigests(stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	setup, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	dg, err := loadDigests(digestsPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if _, err := os.Stat(goldenDir); err != nil {
		fmt.Fprintln(stderr, "perfbench: experiment goldens missing:", err)
		return 1
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := &bench{workload: *name, seed: *seed, digests: dg, log: stderr}
	res, err := b.execute(setup, dir, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute boots the workload setups times, then runs the end-to-end or
// the traced measurement on the last boot.
func (b *bench) execute(setup func(*bench, string) (instance, error), dir string, d time.Duration, traced bool) (*result, error) {
	var setupTimes []float64
	var inst instance
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close()
		}
		sub := filepath.Join(dir, fmt.Sprintf("boot%d", i))
		start := time.Now()
		var err error
		inst, err = setup(b, sub)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer inst.close()
	fmt.Fprintf(b.log, "%s seed=%d setup_s=%v\n", b.workload, b.seed, setupTimes)

	if !traced {
		ph := measure(inst, d, nil)
		inst.shares(b.log)
		return b.endToEnd(ph, median(setupTimes))
	}
	return b.tracedRun(inst, d, dir)
}

// storeCounters are the store-level counts a timed phase is charged.
type storeCounters struct {
	calibrations int   // calibration snapshots written
	writes       int64 // store writes
	diskHits     int64 // store disk-tier hits
}

func countersOf(stores []*store.Store) storeCounters {
	var c storeCounters
	for _, st := range stores {
		s := st.Stats()
		c.calibrations += len(st.Keys(store.Calibrations))
		c.writes += s.Writes
		c.diskHits += s.DiskHits
	}
	return c
}

// measure runs one timed phase and attaches the process- and store-level
// counters around it. Counter reads happen outside the timed window.
func measure(inst instance, d time.Duration, tr *tracer) phase {
	c0 := inst.counters()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ph := inst.run(d, tr)
	runtime.ReadMemStats(&m1)
	c1 := inst.counters()
	ph.alloc = m1.TotalAlloc - m0.TotalAlloc
	ph.calibrations = c1.calibrations - c0.calibrations
	ph.writes = c1.writes - c0.writes
	ph.diskHits = c1.diskHits - c0.diskHits
	return ph
}

// endToEnd turns an untraced phase into the end-to-end metrics.
func (b *bench) endToEnd(ph phase, setupS float64) (*result, error) {
	if ph.completed() == 0 {
		return nil, errors.New("no op completed")
	}
	pct, tailMS, ok := tail(ph.lat)
	if !ok {
		return nil, fmt.Errorf("%d ops leave fewer than %d samples beyond the median; raise --seconds", len(ph.lat), minBeyondTail)
	}
	// Peak RSS is printed, not gated: on calib-cold it follows the
	// garbage collector's timing around the largest calibrations and
	// moves by a fifth between identical runs.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	n := float64(ph.completed())
	fmt.Fprintf(b.log, "ops=%d failed=%d elapsed=%.3fs p50=%.4fms tail=p%g(n=%d)=%.4fms peak_rss=%.1fMB\n",
		ph.attempted, ph.failed, ph.elapsed.Seconds(), median(ph.lat), pct, len(ph.lat), tailMS, rss)
	return &result{
		Correct:   ph.failed == 0 && b.failures == 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics: map[string]metric{
			"setup_s":         {setupS, "s"},
			"op_p50_ms":       {median(ph.lat), "ms"},
			"op_tail_ms":      {tailMS, "ms"},
			"ops_per_s":       {ph.opsPerSec(), "1/s"},
			"alloc_mb_per_op": {float64(ph.alloc) / 1e6 / n, "MB"},
		},
	}, nil
}
