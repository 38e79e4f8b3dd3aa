package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tensortee"
	"tensortee/internal/store"
)

// serveClients is the number of closed-loop clients. One, so the
// collector's worker has the other of the two cores: with two clients
// the op latencies measured their contention for the cores.
const serveClients = 1

var serveFormats = []string{"json", "text", "csv"}

// expRef is what a correct response for one experiment looks like.
type expRef struct {
	id     string
	bodies map[string][]byte // format -> golden rendering
	etags  map[string]string // format -> ETag learned at set-up
}

// specRef is what a correct response for one working-set scenario looks
// like.
type specRef struct {
	post []byte // request body
	fp   string
	body []byte // JSON rendering served at set-up (checked against the digest)
	etag string
}

// serveInst is a booted serve-mixed workload: a warm server and the
// references every response is checked against.
type serveInst struct {
	b      *bench
	runner *tensortee.Runner
	h      http.Handler
	exps   []expRef
	specs  []specRef
	tiers  map[string]int // responses per tier, timed phases
	kinds  map[string]int // requests per kind, timed phases
	gzip   int            // gzipped responses, timed phases
	total  int            // requests, timed phases
	runs   int            // timed phases so far (each gets fresh request streams)
}

func setupServeMixed(b *bench, dir string) (instance, error) {
	runner, h, err := newServer(dir)
	if err != nil {
		return nil, err
	}
	w := &serveInst{b: b, runner: runner, h: h, tiers: map[string]int{}, kinds: map[string]int{}}
	c := newClient(h)
	for _, id := range serveExperiments() {
		e := expRef{id: id, bodies: map[string][]byte{}, etags: map[string]string{}}
		for _, f := range serveFormats {
			golden, err := os.ReadFile(filepath.Join(goldenDir, id+"."+goldenExt(f)))
			if err != nil {
				return nil, err
			}
			if f == "json" {
				golden = bytes.TrimSuffix(golden, []byte("\n"))
			}
			c.do("GET", "/v1/experiments/"+id+"?format="+f, nil, nil)
			if c.rec.status != http.StatusOK {
				return nil, fmt.Errorf("warming %s: %s", id, statusText(c.rec.status))
			}
			if !bytes.Equal(c.rec.body.Bytes(), golden) {
				b.fail("experiment %s (%s) differs from its golden rendering", id, f)
			}
			e.bodies[f], e.etags[f] = golden, c.rec.hdr.Get("ETag")
		}
		w.exps = append(w.exps, e)
	}
	for _, s := range serveSpecs() {
		post, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		c.do("POST", "/v1/scenarios", post, nil)
		if c.rec.status != http.StatusOK {
			return nil, fmt.Errorf("warming scenario %s: %s: %s", s.Name, statusText(c.rec.status), c.rec.body.String())
		}
		body := bytes.Clone(c.rec.body.Bytes())
		if want, got := b.digests.ServeMixed[s.Name], digest(body); got != want {
			b.fail("scenario %s: body digest %s, committed %q", s.Name, got, want)
		}
		w.specs = append(w.specs, specRef{post: post, fp: s.Fingerprint(), body: body, etag: c.rec.hdr.Get("ETag")})
	}
	// Warm-up op: one memory-tier lookup outside the timed set.
	c.do("GET", "/v1/experiments/tab1", nil, nil)
	if c.rec.status != http.StatusOK {
		return nil, fmt.Errorf("warm-up lookup: %s", statusText(c.rec.status))
	}
	return w, nil
}

func goldenExt(format string) string {
	if format == "text" {
		return "txt"
	}
	return format
}

// serveBatch is how many consecutive requests of a client make one
// serve-mixed op, whose latency is the sum of theirs. A single request's
// latency is bimodal (memory hits and 304s take microseconds, disk hits
// up to a millisecond) and its median sits on the edge between the two
// modes, where it moved by a third between runs of the same code; its
// p99 followed the odd collector pause. The sum over a run of requests
// has a median and a tail that repeat. The per-request figures are the
// per-layer server.*_p50_us.
const serveBatch = 64

// clientStats is one client's share of a timed phase.
type clientStats struct {
	lat               []float64
	attempted, failed int // ops
	requests          int
	tiers             map[string]int
	kinds             map[string]int
	gzip              int
}

func (w *serveInst) run(d time.Duration, tr *tracer) phase {
	w.runs++
	deadline := time.Now().Add(d)
	stats := make([]clientStats, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	for ci := range stats {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cs := &stats[ci]
			cs.tiers, cs.kinds = map[string]int{}, map[string]int{}
			c := newClient(w.h)
			next := serveStream(w.b.seed+int64(1000*w.runs), ci)
			for req := int64(ci); time.Now().Before(deadline); {
				var lat time.Duration
				ok := true
				for i := 0; i < serveBatch; i, req = i+1, req+serveClients {
					q := next()
					cs.requests++
					cs.kinds[q.Kind.String()]++
					s := tr.begin("server.request", req, -1)
					t0 := time.Now()
					w.send(c, q)
					lat += time.Since(t0)
					tier := tierOf(c.rec)
					tr.endAs(s, "server."+tier)
					cs.tiers[tier]++
					if q.scenario() {
						cs.tiers["scenario/"+tier]++
					}
					if c.rec.hdr.Get("Content-Encoding") == "gzip" {
						cs.gzip++
					}
					if !w.check(c, q) {
						ok = false
					}
				}
				cs.attempted++
				if !ok {
					cs.failed++
					continue
				}
				cs.lat = append(cs.lat, float64(lat)/float64(time.Millisecond))
			}
		}(ci)
	}
	wg.Wait()
	var ph phase
	ph.elapsed = time.Since(start)
	for _, cs := range stats {
		ph.lat = append(ph.lat, cs.lat...)
		ph.attempted += cs.attempted
		ph.failed += cs.failed
		for t, n := range cs.tiers {
			w.tiers[t] += n
		}
		for k, n := range cs.kinds {
			w.kinds[k] += n
		}
		w.gzip += cs.gzip
		w.total += cs.requests
	}
	return ph
}

// send issues one generated request.
func (w *serveInst) send(c *client, q serveReq) {
	hdr := map[string]string{}
	if q.Gzip {
		hdr["Accept-Encoding"] = "gzip"
	}
	switch q.Kind {
	case reqExperiment:
		c.do("GET", "/v1/experiments/"+w.exps[q.Index].id+"?format="+q.Format, nil, hdr)
	case reqRevalidate, reqStaleTag:
		if q.OnSpec {
			tag := w.specs[q.Index].etag
			if q.Kind == reqStaleTag {
				tag = w.specs[(q.Index+1)%len(w.specs)].etag
			}
			hdr["If-None-Match"] = tag
			c.do("GET", "/v1/scenarios/"+w.specs[q.Index].fp, nil, hdr)
			return
		}
		e := w.exps[q.Index]
		tag := e.etags["json"]
		if q.Kind == reqStaleTag {
			tag = e.etags["text"] // a representation the client does not hold
		}
		hdr["If-None-Match"] = tag
		c.do("GET", "/v1/experiments/"+e.id+"?format=json", nil, hdr)
	case reqScenarioPost:
		c.do("POST", "/v1/scenarios", w.specs[q.Index].post, hdr)
	case reqScenarioGet:
		c.do("GET", "/v1/scenarios/"+w.specs[q.Index].fp, nil, hdr)
	}
}

// check verifies one response: status, validator and body. A refusal
// (429/503), a wrong status, a 304 for anything but the current ETag, or
// a body that differs from the reference all fail the op.
func (w *serveInst) check(c *client, q serveReq) bool {
	rec := c.rec
	if refused(rec.status) {
		w.b.fail("request %+v refused: %s", q, statusText(rec.status))
		return false
	}
	var want []byte
	var etag string
	switch {
	case q.Kind == reqRevalidate && q.OnSpec:
		etag = w.specs[q.Index].etag
	case q.Kind == reqRevalidate:
		etag = w.exps[q.Index].etags["json"]
	case q.Kind == reqExperiment:
		want, etag = w.exps[q.Index].bodies[q.Format], w.exps[q.Index].etags[q.Format]
	case q.Kind == reqStaleTag && !q.OnSpec:
		want, etag = w.exps[q.Index].bodies["json"], w.exps[q.Index].etags["json"]
	default: // scenario bodies
		want, etag = w.specs[q.Index].body, w.specs[q.Index].etag
	}
	if q.Kind == reqRevalidate {
		if rec.status != http.StatusNotModified || rec.hdr.Get("ETag") != etag || rec.body.Len() != 0 {
			w.b.fail("revalidation %+v: %s with ETag %s, want 304 for %s", q, statusText(rec.status), rec.hdr.Get("ETag"), etag)
			return false
		}
		return true
	}
	if rec.status != http.StatusOK {
		w.b.fail("request %+v: %s, want 200", q, statusText(rec.status))
		return false
	}
	if rec.hdr.Get("ETag") != etag {
		w.b.fail("request %+v: ETag %s, want %s", q, rec.hdr.Get("ETag"), etag)
		return false
	}
	body, err := c.body()
	if err != nil || !bytes.Equal(body, want) {
		w.b.fail("request %+v: body differs from the reference (%v)", q, err)
		return false
	}
	return true
}

// serveProbeSpecs is how many working-set scenarios the layer probe
// replays.
const serveProbeSpecs = 4

func (w *serveInst) probeInputs() []probeInput {
	specs := serveSpecs()
	r := newRand(w.b.seed, 3)
	var out []probeInput
	for i := 0; i < serveProbeSpecs; i++ {
		s := specs[r.IntN(len(specs))]
		out = append(out, probeInput{spec: s, label: s.Name})
	}
	return out
}

func (w *serveInst) tensorRunner() *tensortee.Runner { return w.runner }

func (w *serveInst) counters() storeCounters { return countersOf([]*store.Store{w.runner.Store()}) }

func (w *serveInst) shares(out io.Writer) {
	n := float64(max(w.total, 1))
	fmt.Fprintf(out, "serve-mixed responses (%d): memory %.3f, disk %.3f, not_modified %.3f, compute %.3f, gzip-encoded %.3f\n",
		w.total, float64(w.tiers["memory"])/n, float64(w.tiers["disk"])/n, float64(w.tiers["not_modified"])/n,
		float64(w.tiers["compute"])/n, float64(w.gzip)/n)
	fmt.Fprintf(out, "serve-mixed requests (%d):", w.total)
	for _, k := range serveKindNames {
		fmt.Fprintf(out, " %s %.3f", k, float64(w.kinds[k])/n)
	}
	fmt.Fprintln(out)
	if sc := w.tiers["scenario/memory"] + w.tiers["scenario/disk"]; sc > 0 {
		fmt.Fprintf(out, "serve-mixed scenario bodies (%d): memory %.3f, disk %.3f\n",
			sc, float64(w.tiers["scenario/memory"])/float64(sc), float64(w.tiers["scenario/disk"])/float64(sc))
	}
}

func (w *serveInst) close() {}
