package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"tensortee"
	"tensortee/internal/campaign"
	"tensortee/internal/config"
	"tensortee/internal/store"
)

// campaignName names every benchmark campaign and its points' scenarios,
// so a point's result depends only on its configuration.
const campaignName = "npu-campaign"

// campaignWorkers is the campaign manager's worker count.
const campaignWorkers = 2

// pointRec is what the harness saw of one campaign point.
type pointRec struct {
	key              string
	label            string    // the manager's "axis=value,..." label
	free             time.Time // when the worker slot it ran on came free
	runStart, runEnd time.Time // the Run hook's call
	event            time.Time // the point event's publication
	state            string
	payload          []byte
	runErr           error
	started, settled bool
}

// campaignRun tracks the campaign in flight.
type campaignRun struct {
	id    string
	span  int
	recs  []pointRec
	index map[string]int // point key -> grid index
	free  []time.Time    // slot-free times not yet taken by a Run call
}

// campaignClient runs campaigns through campaign.NewManager with the same
// Run/Measure hooks `tensorteesim -campaign` uses, timing each point from
// the harness side of those hooks.
type campaignClient struct {
	b      *bench
	runner *tensortee.Runner
	mgr    *campaign.Manager
	keyOf  func(tensortee.Scenario) string

	mu  sync.Mutex
	cur *campaignRun
	tr  *tracer
	ops int64
}

func newCampaignClient(b *bench, runner *tensortee.Runner, keyOf func(tensortee.Scenario) string) *campaignClient {
	d := &campaignClient{b: b, runner: runner, keyOf: keyOf}
	d.mgr = campaign.NewManager(campaign.Config{
		Run: d.runPoint,
		Measure: func(payload []byte) (campaign.Measurement, error) {
			sp, total, err := tensortee.StoredMeasurement(payload)
			if err != nil {
				return campaign.Measurement{}, err
			}
			return campaign.Measurement{Speedup: sp, TotalSeconds: total}, nil
		},
		Store:   runner.Store(),
		Workers: campaignWorkers,
		Retries: 1,
		OnEvent: d.onEvent,
	})
	return d
}

// runPoint is the manager's Run hook.
func (d *campaignClient) runPoint(ctx context.Context, s tensortee.Scenario) ([]byte, error) {
	key := d.keyOf(s)
	start := time.Now()
	d.mu.Lock()
	run, tr := d.cur, d.tr
	var i int
	ok := run != nil
	if ok {
		i, ok = run.index[key]
	}
	parent := -1
	if run != nil {
		parent = run.span
	}
	if ok {
		r := &run.recs[i]
		r.runStart, r.started = start, true
		if len(run.free) > 0 {
			r.free, run.free = run.free[0], run.free[1:]
		} else {
			r.free = start
		}
	}
	d.ops++
	op := d.ops
	d.mu.Unlock()

	sp := tr.begin("campaign.point_run", op, parent)
	rs := tr.begin("tensortee.run_scenario", op, sp)
	res, _, err := d.runner.RunScenarioCached(ctx, s)
	tr.end(rs)
	var payload []byte
	if err == nil {
		es := tr.begin("tensortee.encode", op, sp)
		payload, err = res.EncodeStored()
		tr.end(es)
	}
	tr.end(sp)

	d.mu.Lock()
	if ok {
		r := &run.recs[i]
		r.runEnd, r.payload, r.runErr = time.Now(), payload, err
	}
	d.mu.Unlock()
	return payload, err
}

// onEvent observes the manager's events synchronously.
func (d *campaignClient) onEvent(ev campaign.Event) {
	if ev.Type != campaign.EventPoint {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	run := d.cur
	if run == nil || ev.Campaign != run.id || ev.Index < 0 || ev.Index >= len(run.recs) {
		return
	}
	r := &run.recs[ev.Index]
	r.event, r.state, r.label, r.settled = ev.Time, ev.State, ev.Point, true
	run.free = append(run.free, ev.Time)
}

// runCampaign submits one campaign whose grid points carry keys, waits
// for it (cancelling at deadline; in-flight points drain), and returns
// the records of the points that ran.
func (d *campaignClient) runCampaign(spec campaign.Spec, keys []string, deadline time.Time, tr *tracer) ([]pointRec, error) {
	// The campaign's id is its plan fingerprint; knowing it before Start
	// lets onEvent match points that settle before Start returns.
	plan, err := campaign.Compile(spec)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	run := &campaignRun{id: plan.ID, span: tr.begin("campaign", 0, -1), recs: make([]pointRec, len(keys)), index: map[string]int{}}
	for i, k := range keys {
		run.index[k] = i
		run.recs[i].key = k
	}
	for w := 0; w < campaignWorkers; w++ {
		run.free = append(run.free, start)
	}
	d.mu.Lock()
	d.cur, d.tr = run, tr
	d.mu.Unlock()
	cs := run.span

	st, created, err := d.mgr.Start(spec)
	if err != nil {
		return nil, err
	}
	if !created || st.ID != run.id {
		return nil, fmt.Errorf("campaign %s was already submitted, or is not the planned %s", st.ID, run.id)
	}

	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	_, err = d.mgr.Wait(ctx, st.ID)
	cancel()
	if err != nil {
		if _, err := d.mgr.Cancel(st.ID); err != nil {
			return nil, err
		}
		if _, err := d.mgr.Wait(context.Background(), st.ID); err != nil {
			return nil, err
		}
	}
	tr.end(cs)

	d.mu.Lock()
	defer d.mu.Unlock()
	d.cur = nil
	var out []pointRec
	for _, r := range run.recs {
		if !r.settled {
			continue // skipped by the cancellation
		}
		if r.started {
			tr.record("campaign.dispatch_wait", 0, cs, r.free, r.runStart)
			tr.record("campaign.point_settle", 0, cs, r.runEnd, r.event)
		}
		out = append(out, r)
	}
	return out, nil
}

func (d *campaignClient) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = d.mgr.Shutdown(ctx)
}

// npuKeyOf recovers a campaign point's key from its scenario: the axis
// values sit on every system's overrides (zero means the Table-1 default).
func npuKeyOf(s tensortee.Scenario) string {
	def := config.Default(config.TensorTEE)
	p := npuPoint{float64(def.NPU.AESEngines), def.NPU.DRAMBandwidthBs / 1e9, def.Comm.LinkBandwidthBs / 1e9,
		def.Comm.StagingBandwidthBs / 1e9, float64(def.Protection.MACGranBytes)}
	if len(s.Systems) > 0 && s.Systems[0].Overrides != nil {
		ov := s.Systems[0].Overrides
		for a, v := range []float64{float64(ov.NPUAESEngines), ov.NPUBandwidthGBs, ov.LinkGBs, ov.StagingGBs, float64(ov.MACGranBytes)} {
			if v != 0 {
				p[a] = v
			}
		}
	}
	return p.key()
}

// npuInst is a booted npu-campaign workload: a Runner over a fresh store
// and a campaign manager with two workers.
type npuInst struct {
	b         *bench
	dir       string
	runner    *tensortee.Runner
	cc        *campaignClient
	stores    []*store.Store // every store opened, the boot's first
	campaigns []npuCampaign
	next      int // campaigns started, over all passes through campaigns
	points    int // points run so far
}

// npuCampaignsPerRun bounds the campaigns drawn for one pass. The pool
// holds at most 15 pairwise-disjoint 16-point grids, and the random draw
// finds 4 to 9 of them before it gives up.
const npuCampaignsPerRun = 12

func setupNPUCampaign(b *bench, dir string) (instance, error) {
	w := &npuInst{b: b, dir: dir, campaigns: npuCampaigns(b.seed, npuCampaignsPerRun)}
	if err := w.open("store"); err != nil {
		return nil, err
	}
	// Warm-up: one point whose configuration no timed point shares.
	recs, err := w.cc.runCampaign(npuWarmup, []string{npuWarmupKey}, time.Now().Add(time.Hour), nil)
	if err != nil {
		w.close()
		return nil, err
	}
	if len(recs) != 1 || recs[0].state != string(campaign.PointComputed) {
		w.close()
		return nil, fmt.Errorf("warm-up campaign did not compute its point: %+v", recs)
	}
	if sp, _, err := tensortee.StoredMeasurement(recs[0].payload); err != nil || !(sp > 0) {
		w.close()
		return nil, fmt.Errorf("warm-up point: speedup %v, %v", sp, err)
	}
	return w, nil
}

// open replaces the Runner, its store and the campaign manager with fresh
// ones over a new store directory.
func (w *npuInst) open(name string) error {
	if w.cc != nil {
		w.cc.close()
	}
	st, err := store.Open(filepath.Join(w.dir, name), store.Options{})
	if err != nil {
		return err
	}
	w.runner = tensortee.NewRunner(tensortee.WithStore(st))
	w.stores = append(w.stores, st)
	w.cc = newCampaignClient(w.b, w.runner, npuKeyOf)
	return nil
}

// run runs the campaigns back to back. After the last one, the next pass
// starts over on a fresh Runner, store and manager, so its points are as
// cold as the first pass's and the run always lasts d however fast a
// point gets.
func (w *npuInst) run(d time.Duration, tr *tracer) phase {
	var ph phase
	start := time.Now()
	deadline := start.Add(d)
	for time.Now().Before(deadline) {
		i := w.next % len(w.campaigns)
		if i == 0 && w.next > 0 {
			if err := w.open(fmt.Sprintf("store-pass%d", w.next/len(w.campaigns))); err != nil {
				w.b.fail("opening a fresh store: %v", err)
				ph.attempted++
				ph.failed++
				break
			}
		}
		c := w.campaigns[i]
		w.next++
		var keys []string
		for _, p := range c.points() {
			keys = append(keys, p.key())
		}
		recs, err := w.cc.runCampaign(c.spec(), keys, deadline, tr)
		if err != nil {
			w.b.fail("campaign %d: %v", w.next, err)
			ph.attempted++
			ph.failed++
			break
		}
		for _, r := range recs {
			ph.attempted++
			if !w.checkPoint(r) {
				ph.failed++
				continue
			}
			ph.lat = append(ph.lat, float64(r.event.Sub(r.runStart))/float64(time.Millisecond))
		}
		w.points += len(recs)
	}
	ph.elapsed = time.Since(start)
	return ph
}

// checkPoint verifies one point: computed, and its checkpoint payload
// matches the committed digest.
func (w *npuInst) checkPoint(r pointRec) bool {
	if r.state != string(campaign.PointComputed) || r.runErr != nil || !r.started {
		w.b.fail("point %s: state %q, error %v", r.key, r.state, r.runErr)
		return false
	}
	res, err := tensortee.DecodeStoredResult(r.payload)
	if err != nil || !strings.Contains(res.ID, r.label) {
		w.b.fail("point %s (%s): stored result does not decode to this point: %v", r.key, r.label, err)
		return false
	}
	want, ok := w.b.digests.NPUCampaign[r.key]
	if got, _ := contentDigest(r.payload); !ok || got != want {
		w.b.fail("point %s: result digest %s, committed %q", r.key, got, want)
		return false
	}
	return true
}

func (w *npuInst) probeInputs() []probeInput {
	var out []probeInput
	for _, c := range w.campaigns[:max(min(w.next, len(w.campaigns)), 1)] {
		plan, err := campaign.Compile(c.spec())
		if err != nil {
			continue
		}
		for i := 0; i < plan.Total && len(out) < 2; i++ {
			spec, label, err := plan.Point(i)
			if err == nil {
				out = append(out, probeInput{spec: spec, label: label})
			}
		}
	}
	return out
}

func (w *npuInst) tensorRunner() *tensortee.Runner { return w.runner }

func (w *npuInst) counters() storeCounters { return countersOf(w.stores) }

func (w *npuInst) shares(out io.Writer) {
	fmt.Fprintf(out, "npu-campaign inputs: %d points over %d campaigns (%d passes through %d), systems %v, model %s\n",
		w.points, w.next, (w.next+len(w.campaigns)-1)/len(w.campaigns), len(w.campaigns), campaignSystems, campaignModel)
}

func (w *npuInst) close() { w.cc.close() }
