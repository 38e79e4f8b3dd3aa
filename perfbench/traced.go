package main

import (
	"fmt"
	"path/filepath"
	"time"

	"tensortee"
	"tensortee/internal/campaign"
)

// tracedQuarters is how many slices the traced run's timed phase is cut
// into, ordered untraced, traced, traced, untraced, so a steady drift in
// the machine's speed falls equally on both sides of the tracing-overhead
// comparison.
const tracedQuarters = 4

// tracedRun measures the per-layer metrics on one boot: the timed phase
// runs untraced and traced slices (their ops_per_s difference is the
// tracing overhead), then the layer probe replays some of the ops'
// inputs through each layer's public functions.
func (b *bench) tracedRun(inst instance, d time.Duration, dir string) (*result, error) {
	slice := max(d/tracedQuarters, time.Second)
	tr := newTracer()
	var plain, traced phase
	for i := 0; i < tracedQuarters; i++ {
		if i == 0 || i == tracedQuarters-1 {
			plain.add(measure(inst, slice, nil))
		} else {
			traced.add(measure(inst, slice, tr))
		}
	}
	inst.shares(b.log)
	if traced.completed() == 0 || plain.completed() == 0 {
		return nil, fmt.Errorf("no op completed (untraced %d, traced %d)", plain.completed(), traced.completed())
	}

	// Campaign-layer spans come from the workload's own points when it ran
	// campaigns, else from a two-point probe campaign over the first probe
	// input.
	runner := inst.tensorRunner()
	pointWrites := float64(traced.writes) / float64(traced.completed())
	if tr.count("campaign.point_run") == 0 {
		in := inst.probeInputs()[0]
		cc := newCampaignClient(b, runner, func(s tensortee.Scenario) string { return fmt.Sprint(s.Model.Batch) })
		spec := probeCampaignSpec(in.spec)
		w0 := runner.Store().Stats().Writes
		recs, err := cc.runCampaign(spec, []string{"1", "2"}, time.Now().Add(time.Minute), tr)
		cc.close()
		if err != nil {
			return nil, fmt.Errorf("probe campaign: %w", err)
		}
		for _, r := range recs {
			if r.state != "computed" || r.runErr != nil {
				b.fail("probe campaign point %s: state %q, error %v", r.key, r.state, r.runErr)
			}
		}
		pointWrites = float64(runner.Store().Stats().Writes-w0) / float64(max(len(recs), 1))
	}

	rep, err := b.probeLayers(inst, runner, tr, dir)
	if err != nil {
		return nil, err
	}
	spans := tr.closed()
	path := filepath.Join(workDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(b.log, "%d spans written to %s\nper-layer self time:\n", len(spans), path)
	printSelfTimes(b.log, selfTimes(spans))
	fmt.Fprintln(b.log, "simulated statistics per replayed configuration:")
	printSimStats(b.log, rep)

	p50 := func(name string) float64 { return median(tr.durations(name)) } // µs
	var cpusimUS float64
	for _, x := range tr.durations("cpusim.run") {
		cpusimUS += x
	}
	mem, disk := tr.count("server.memory"), tr.count("server.disk")
	var sum simStats
	for _, s := range rep.sims {
		sum.Accesses += s.Accesses
		sum.DRAMLines += s.DRAMLines
		sum.MakespanPS += s.MakespanPS
		sum.ExtraLines += s.ExtraLines
		sum.MetaHits += s.MetaHits
		sum.MetaMisses += s.MetaMisses
		sum.HitIn += s.HitIn
		sum.Lookups += s.Lookups
	}
	nSims := float64(max(len(rep.sims), 1))
	n := float64(traced.completed())
	overhead := 100 * (plain.opsPerSec() - traced.opsPerSec()) / plain.opsPerSec()

	fmt.Fprintf(b.log, "ops_per_s untraced %.3f, traced %.3f: tracing overhead %.2f%%\n", plain.opsPerSec(), traced.opsPerSec(), overhead)
	fmt.Fprintf(b.log, "fresh calibrations: untraced half %d over %d ops, traced half %d over %d ops\n",
		plain.calibrations, plain.completed(), traced.calibrations, traced.completed())
	if len(rep.opMS) > 0 {
		fmt.Fprintf(b.log, "core.calibrate_ms p50 %.3f vs untraced op_p50_ms %.3f (ratio %.3f)\n",
			p50("core.calibrate")/1e3, median(plain.lat), p50("core.calibrate")/1e3/median(plain.lat))
		fmt.Fprintf(b.log, "probe, %d cold ops each followed by its calibration: calibration p50 %.3f ms of cold op p50 %.3f ms (ratio %.3f)\n",
			len(rep.opMS), median(rep.calibMS), median(rep.opMS), median(rep.calibMS)/median(rep.opMS))
	}

	failed := plain.failed + traced.failed + rep.mismatches
	return &result{
		Correct:   failed == 0 && b.failures == 0,
		Attempted: plain.attempted + traced.attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"core.calibrate_ms":                   {p50("core.calibrate") / 1e3, "ms"},
			"trace.gen_ms":                        {p50("trace.gen") / 1e3, "ms"},
			"cpusim.run_ms":                       {p50("cpusim.run") / 1e3, "ms"},
			"cpusim.lines_per_us":                 {float64(rep.accesses) / cpusimUS, "1/us"},
			"tensortee.fresh_calibrations_per_op": {float64(traced.calibrations) / n, "count"},
			"core.trainstep_us":                   {p50("core.trainstep"), "us"},
			"npusim.phases_us":                    {p50("npusim.phases"), "us"},
			"comm.transfer_us":                    {p50("comm.transfer"), "us"},
			"campaign.point_run_ms":               {p50("campaign.point_run") / 1e3, "ms"},
			"campaign.point_settle_ms":            {p50("campaign.point_settle") / 1e3, "ms"},
			"campaign.dispatch_wait_ms":           {p50("campaign.dispatch_wait") / 1e3, "ms"},
			"campaign.writes_per_point":           {pointWrites, "count"},
			"store.put_ms":                        {p50("store.put") / 1e3, "ms"},
			"store.get_us":                        {p50("store.get"), "us"},
			"store.writes":                        {float64(traced.writes) / n, "1/op"},
			"store.disk_hits":                     {float64(traced.diskHits) / n, "1/op"},
			"tensortee.encode_us":                 {p50("tensortee.encode"), "us"},
			"tensortee.decode_us":                 {p50("tensortee.decode"), "us"},
			"tensortee.render_json_us":            {p50("tensortee.render_json"), "us"},
			"scenario.compile_us":                 {p50("scenario.compile"), "us"},
			"server.memory_p50_us":                {p50("server.memory"), "us"},
			"server.disk_p50_us":                  {p50("server.disk"), "us"},
			"server.not_modified_p50_us":          {p50("server.not_modified"), "us"},
			"server.disk_share":                   {float64(disk) / float64(max(mem+disk, 1)), "ratio"},
			"cpusim.accesses":                     {float64(sum.Accesses) / nSims, "count"},
			"cpusim.dram_lines":                   {float64(sum.DRAMLines) / nSims, "count"},
			"cpusim.makespan_ns":                  {float64(sum.MakespanPS) / 1e3 / nSims, "ns"},
			"mee.extra_lines":                     {float64(sum.ExtraLines) / nSims, "count"},
			"cache.meta_hit_rate":                 {ratio(sum.MetaHits, sum.MetaHits+sum.MetaMisses), "ratio"},
			"tenanalyzer.hit_in_rate":             {ratio(sum.HitIn, sum.Lookups), "ratio"},
			"trace.overhead_pct":                  {overhead, "%"},
		},
	}, nil
}

// probeCampaignSpec is a two-point campaign over the batch size of spec.
// Its systems are already calibrated, so the points time the campaign
// machinery and the scenario pipeline rather than calibration.
func probeCampaignSpec(s tensortee.Scenario) campaign.Spec {
	s.Name = "probe-campaign"
	return campaign.Spec{Name: s.Name, Base: s, Axes: []campaign.Axis{{Axis: "batch", Values: []float64{1, 2}}}}
}
