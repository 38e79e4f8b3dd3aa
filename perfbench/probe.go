package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"time"

	"tensortee"
	"tensortee/internal/config"
	"tensortee/internal/core"
	"tensortee/internal/cpusim"
	"tensortee/internal/mee"
	"tensortee/internal/scenario"
	"tensortee/internal/server"
	"tensortee/internal/sim"
	"tensortee/internal/store"
	"tensortee/internal/tensor"
	"tensortee/internal/trace"
)

// probeInput is one op input the layer probe replays.
type probeInput struct {
	spec  tensortee.Scenario
	label string
	cold  bool // a calib-cold input: the probe also re-times its cold op
}

// probeOpBase offsets probe op ids from timed-phase op ids in the spans.
const probeOpBase = 1 << 40

// adamBytesPerElem is the DRAM traffic per fp32 element of the fused
// Adam sweep that core's calibration divides its makespans by (core's
// adamTrafficBytesPerElem: read w, g, m, v and write back w, m, v).
const adamBytesPerElem = 28

// calibReplay is what one layer-by-layer replay of a calibration
// simulated.
type calibReplay struct {
	stats    simStats
	accesses uint64 // cpusim accesses over both iterations
	// snap holds the cost figures the replay's makespans imply. It must
	// equal the Snapshot of the system core.NewSystemFromConfig built for
	// the same configuration; a difference means the replay no longer
	// simulates what the program calibrates on.
	snap core.CalibrationSnapshot
}

// replayCalibration re-runs, layer by layer, the calibration sample that
// core.NewSystemFromConfig simulates for cfg: the Adam streams over the
// calibration window, one warm-up and one steady iteration through
// cpusim (which drives the caches, TenAnalyzer, MEE and DRAM). tr (may
// be nil) gets trace.gen and cpusim.run spans. Core's calibration is
// private, so this composition copies it; probeLayers compares the
// replay's snap with the program's own snapshot to catch drift.
func replayCalibration(cfg config.Config, tr *tracer, op int64, parent int) calibReplay {
	arena := tensor.NewArena(0, 64)
	quads := []trace.AdamTensors{trace.NewAdamTensors(arena, "calib", core.SampledElems)}
	lines := int(arena.Next()/64) + 64
	if pb := cfg.CPU.ProtectedBytes; pb > 0 {
		if rl := int(pb / int64(cfg.CPU.LineBytes)); rl > lines {
			lines = rl
		}
	}
	mode := mee.ModeSGX
	switch {
	case !cfg.Secure():
		mode = mee.ModeOff
	case cfg.Protection.TensorWiseCPU:
		mode = mee.ModeTensor
	}
	csim := cpusim.New(cfg, cpusim.Options{Mode: mode, DataLines: lines})
	iteration := func() cpusim.Result {
		g := tr.begin("trace.gen", op, parent)
		streams := trace.AdamStreams(quads, trace.AdamConfig{
			LineBytes:      cfg.CPU.LineBytes,
			ComputePerLine: sim.Cycles(40, cfg.CPU.FreqHz),
			Cores:          cfg.CPU.Cores,
		})
		tr.end(g)
		r := tr.begin("cpusim.run", op, parent)
		res := csim.Run(streams)
		tr.end(r)
		return res
	}
	warm := iteration() // Meta Table detection in tensor mode
	steady := iteration()
	meta := csim.Engine().MetaCacheStats()
	rp := calibReplay{
		stats: simStats{
			Accesses:   steady.Accesses,
			DRAMLines:  steady.DRAMReads + steady.DRAMWrites,
			MakespanPS: uint64(steady.Makespan),
			ExtraLines: steady.MEE.ExtraLines(),
			MetaHits:   meta.Hits,
			MetaMisses: meta.Misses,
		},
		accesses: warm.Accesses + steady.Accesses,
	}
	if a := csim.Analyzer(); a != nil {
		as := a.Stats()
		rp.stats.HitIn, rp.stats.Lookups = as.HitIn, as.Accesses()
	}
	bytes := float64(core.SampledElems) * adamBytesPerElem
	rp.snap = core.CalibrationSnapshot{
		CostPerByteBits:   math.Float64bits(steady.Makespan.Seconds() / bytes),
		WarmupPerByteBits: math.Float64bits(warm.Makespan.Seconds() / bytes),
	}
	return rp
}

// probeReport is what the layer probe measured besides its spans.
type probeReport struct {
	sims       []simStats
	simKeys    []string
	mismatches int
	accesses   uint64 // cpusim accesses replayed, both iterations

	// Cold inputs: the cold op re-timed on a fresh server, and the
	// calibration of its configuration right after it.
	opMS, calibMS []float64
}

// probeLayers replays the instance's probe inputs through each layer's
// public functions under spans: scenario compilation, calibration and
// its cpusim replay, the training-step models, the result codecs, the
// store, and the server's three serving tiers.
func (b *bench) probeLayers(inst instance, runner *tensortee.Runner, tr *tracer, dir string) (*probeReport, error) {
	probeStore, err := store.Open(filepath.Join(dir, "probe-store"), store.Options{})
	if err != nil {
		return nil, err
	}
	rep := &probeReport{}
	seen := map[string]bool{}
	ctx := context.Background()
	h := server.New(server.Config{Runner: runner}).Handler()
	c := newClient(h)
	var cold *client // a server over an empty store, for re-timing cold ops
	for i, in := range inst.probeInputs() {
		op := probeOpBase + int64(i)
		root := tr.begin("probe", op, -1)
		if in.cold {
			if cold == nil {
				_, fh, err := newServer(filepath.Join(dir, "probe-cold"))
				if err != nil {
					return nil, err
				}
				cold = newClient(fh)
			}
			body, err := json.Marshal(in.spec)
			if err != nil {
				return nil, err
			}
			s := tr.begin("server.request", op, root)
			t0 := time.Now()
			cold.do("POST", "/v1/scenarios", body, nil)
			rep.opMS = append(rep.opMS, float64(time.Since(t0))/float64(time.Millisecond))
			tr.endAs(s, "server."+tierOf(cold.rec))
			if cold.rec.status != 200 {
				return nil, fmt.Errorf("probe %s: cold op: %s", in.label, statusText(cold.rec.status))
			}
		}

		s := tr.begin("scenario.compile", op, root)
		plan, err := scenario.Compile(in.spec)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", in.label, err)
		}
		pt := plan.Points[0]
		for _, cfg := range pt.Configs {
			id, _ := json.Marshal(cfg)
			if seen[string(id)] {
				continue
			}
			seen[string(id)] = true
			s := tr.begin("core.calibrate", op, root)
			t0 := time.Now()
			sys, err := core.NewSystemFromConfig(cfg)
			calib := time.Since(t0)
			tr.end(s)
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", in.label, err)
			}
			if in.cold {
				rep.calibMS = append(rep.calibMS, float64(calib)/float64(time.Millisecond))
			}
			rp := replayCalibration(cfg, tr, op, root)
			rep.accesses += rp.accesses
			key := cpuKeyOf(cfg)
			rep.sims = append(rep.sims, rp.stats)
			rep.simKeys = append(rep.simKeys, key)
			if want, ok := b.digests.SimStats[key]; !ok || want != rp.stats {
				rep.mismatches++
				b.fail("simulated statistics of %s: got %+v, committed %+v", key, rp.stats, want)
			}
			if got := sys.Snapshot(); got != rp.snap {
				rep.mismatches++
				b.fail("calibration replay of %s drifted from core's calibration: replay %+v, program %+v", key, rp.snap, got)
			}
			s = tr.begin("core.trainstep", op, root)
			sys.TrainStep(pt.Model)
			tr.end(s)
			s = tr.begin("npusim.phases", op, root)
			sys.NPUPhases(pt.Model)
			tr.end(s)
			s = tr.begin("comm.transfer", op, root)
			sys.GradTransferBreakdown(pt.Model)
			tr.end(s)
		}

		res, _, err := runner.RunScenarioCached(ctx, in.spec)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", in.label, err)
		}
		s = tr.begin("tensortee.encode", op, root)
		payload, err := res.EncodeStored()
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("tensortee.decode", op, root)
		_, err = tensortee.DecodeStoredResult(payload)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("tensortee.render_json", op, root)
		_, err = res.JSON()
		tr.end(s)
		if err != nil {
			return nil, err
		}
		key := fmt.Sprintf("probe%03d", i)
		s = tr.begin("store.put", op, root)
		err = probeStore.Put(store.Scenarios, key, payload)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("store.get", op, root)
		_, ok := probeStore.Get(store.Scenarios, key)
		tr.end(s)
		if !ok {
			return nil, fmt.Errorf("probe %s: probe store lost %s", in.label, key)
		}

		// A fresh server over the same runner has an empty memory tier:
		// the first lookup loads from disk, the second hits memory, and a
		// revalidation with the ETag it returned answers 304.
		target := "/v1/scenarios/" + in.spec.Fingerprint()
		var etag string
		for i := 0; i < 3; i++ {
			var hdr map[string]string
			if i == 2 {
				hdr = map[string]string{"If-None-Match": etag}
			}
			s = tr.begin("server.request", op, root)
			c.do("GET", target, nil, hdr)
			tr.endAs(s, "server."+tierOf(c.rec))
			etag = c.rec.hdr.Get("ETag")
		}
		tr.end(root)
	}
	return rep, nil
}

// tierOf names the tier that answered a response: not_modified for a
// 304, else the X-Cache header (memory, disk, compute, stale).
func tierOf(rec *recorder) string {
	if rec.status == 304 {
		return "not_modified"
	}
	if t := rec.hdr.Get("X-Cache"); t != "" {
		return t
	}
	return "untiered"
}

// printSimStats writes one row per replayed configuration.
func printSimStats(w io.Writer, rep *probeReport) {
	fmt.Fprintf(w, "%-22s %10s %10s %14s %10s %9s %9s\n", "cpu config", "accesses", "dram_lines", "makespan_ns", "extra", "meta_hit", "hit_in")
	for i, s := range rep.sims {
		fmt.Fprintf(w, "%-22s %10d %10d %14.1f %10d %9.4f %9.4f\n", rep.simKeys[i], s.Accesses, s.DRAMLines,
			float64(s.MakespanPS)/1e3, s.ExtraLines, ratio(s.MetaHits, s.MetaHits+s.MetaMisses), ratio(s.HitIn, s.Lookups))
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
