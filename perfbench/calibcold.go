package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"time"

	"tensortee"
	"tensortee/internal/server"
	"tensortee/internal/store"
)

// calibInst is a booted calib-cold workload: the seeded sequence of
// scenarios, each sent to its own server over a fresh store.
type calibInst struct {
	b      *bench
	dir    string
	runner *tensortee.Runner // the latest op's
	stores []*store.Store    // every store opened, the boot's first
	order  []calibPoint
	bodies [][]byte
	next   int // ops started, over all passes through order
}

// newServer boots the serving stack over a fresh store in dir.
func newServer(dir string) (*tensortee.Runner, http.Handler, error) {
	st, err := store.Open(filepath.Join(dir, "store"), store.Options{})
	if err != nil {
		return nil, nil, err
	}
	runner := tensortee.NewRunner(tensortee.WithStore(st))
	return runner, server.New(server.Config{Runner: runner}).Handler(), nil
}

func setupCalibCold(b *bench, dir string) (instance, error) {
	runner, h, err := newServer(dir)
	if err != nil {
		return nil, err
	}
	w := &calibInst{b: b, dir: dir, runner: runner, stores: []*store.Store{runner.Store()}, order: calibOrder(b.seed)}
	for _, p := range w.order {
		body, err := json.Marshal(p.spec())
		if err != nil {
			return nil, err
		}
		w.bodies = append(w.bodies, body)
	}
	// Warm-up: one cold scenario outside the pool.
	warm, err := json.Marshal(calibWarmup.spec())
	if err != nil {
		return nil, err
	}
	c := newClient(h)
	c.do("POST", "/v1/scenarios", warm, nil)
	if c.rec.status != http.StatusOK {
		return nil, fmt.Errorf("warm-up scenario: %s: %s", statusText(c.rec.status), c.rec.body.String())
	}
	return w, nil
}

// run sends each op to a server over a fresh store and Runner, opened
// outside the op's latency, so no op finds anything an earlier op left.
// After the last entry of order the sequence starts over; the fresh
// store keeps a repeated entry cold, so the run always lasts d however
// fast an op gets.

func (w *calibInst) run(d time.Duration, tr *tracer) phase {
	var ph phase
	start := time.Now()
	deadline := start.Add(d)
	for time.Now().Before(deadline) {
		op := w.next
		w.next++
		i := op % len(w.order)
		p := w.order[i]
		ph.attempted++
		runner, h, err := newServer(filepath.Join(w.dir, fmt.Sprintf("op%d", op)))
		if err != nil {
			w.b.fail("%s: opening its store: %v", p.key(), err)
			ph.failed++
			break
		}
		w.runner = runner
		w.stores = append(w.stores, runner.Store())
		c := newClient(h)
		s := tr.begin("server.request", int64(op), -1)
		t0 := time.Now()
		c.do("POST", "/v1/scenarios", w.bodies[i], nil)
		lat := time.Since(t0)
		tr.endAs(s, "server."+tierOf(c.rec))
		if !w.check(p, c.rec) {
			ph.failed++
			continue
		}
		ph.lat = append(ph.lat, float64(lat)/float64(time.Millisecond))
	}
	ph.elapsed = time.Since(start)
	return ph
}

// check verifies one cold op: computed on this request, and the served
// body matches the committed digest for its input.
func (w *calibInst) check(p calibPoint, rec *recorder) bool {
	switch {
	case rec.status != http.StatusOK:
		w.b.fail("%s: %s", p.key(), statusText(rec.status))
		return false
	case rec.hdr.Get("X-Cache") != "compute":
		w.b.fail("%s: served from %q, want a fresh compute", p.key(), rec.hdr.Get("X-Cache"))
		return false
	}
	want, ok := w.b.digests.CalibCold[p.key()]
	if got := digest(rec.body.Bytes()); !ok || got != want {
		w.b.fail("%s: body digest %s, committed %q", p.key(), got, want)
		return false
	}
	return true
}

// calibProbeOps is how many of the run's ops the layer probe replays.
const calibProbeOps = 12

func (w *calibInst) probeInputs() []probeInput {
	var out []probeInput
	for _, p := range w.order[:min(calibProbeOps, len(w.order))] {
		out = append(out, probeInput{spec: p.spec(), label: p.key(), cold: true})
	}
	return out
}

func (w *calibInst) tensorRunner() *tensortee.Runner { return w.runner }

func (w *calibInst) counters() storeCounters { return countersOf(w.stores) }

func (w *calibInst) shares(out io.Writer) {
	var np2, tensorMode, above int
	var ops []calibPoint
	for op := 0; op < w.next; op++ {
		ops = append(ops, w.order[op%len(w.order)])
	}
	for _, p := range ops {
		if p.nonPow2Channels() {
			np2++
		}
		if p.Mode == "tensor" {
			tensorMode++
		}
		if p.regionAboveWindow() {
			above++
		}
	}
	n := float64(max(len(ops), 1))
	fmt.Fprintf(out, "calib-cold inputs (%d ops, %d passes through the %d-entry pool): non-power-of-two channels %.3f, tensor MEE mode %.3f (sgx %.3f), region above the %d MB window %.3f\n",
		len(ops), (len(ops)+len(w.order)-1)/len(w.order), len(w.order), float64(np2)/n, float64(tensorMode)/n, 1-float64(tensorMode)/n, calibWindowMB, float64(above)/n)
}

func (w *calibInst) close() {}
