package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestOrderStatisticsAreSamples(t *testing.T) {
	var xs []float64
	for i := 20; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	d := summarize(xs, 95)
	want := dist{N: 20, Q1: 5, P50: 10, Q3: 15, TailPct: 95, Tail: 19, Beyond: 1, P90: 18, P95: 19, P98: 20, P99: 20, Max: 20}
	if d != want {
		t.Fatalf("summarize = %+v, want %+v", d, want)
	}
	if got := orderStat([]float64{3, 1, 2}, 99); got != 3 {
		t.Fatalf("p99 of 3 samples = %v, want the largest", got)
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	rec := newRecorder()
	at := func(ns int64) time.Time { return rec.epoch.Add(time.Duration(ns)) }
	root := rec.add(1, 0, "parent", at(0), at(100))
	rec.add(1, root, "child", at(10), at(30))
	rec.add(1, root, "child", at(20), at(50))  // overlaps the first
	rec.add(1, root, "child", at(90), at(120)) // runs past the parent
	lt := rec.selfTimes()
	if got, want := lt["parent"].SelfMS, 50e-6; got < want-1e-12 || got > want+1e-12 {
		t.Fatalf("parent self = %v ms, want %v", got, want)
	}
	if got := lt["child"].Spans; got != 3 {
		t.Fatalf("child spans = %d", got)
	}
}

// deterministic lists the metrics that must repeat exactly across runs
// of one seed: outputs of the allocator and its work counters.
var deterministic = append([]string{"spill_cost", "copies_left", "code_words", "vm_cycles",
	"coalesce.merged_per_examined", "color.rescued_per_candidate"}, allocLayerCounts...)

func tracedRun(t *testing.T, workload string) *run {
	t.Helper()
	cfg := config{workload: workload, seed: 7, seconds: 0, trace: true}
	var r *run
	var err error
	switch workload {
	case "fig7":
		r, err = runFig7(cfg)
	case "suite":
		r, err = runSuite(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !r.correct {
		t.Fatalf("%s: outputs not correct: %v", workload, r.failures)
	}
	return r
}

func TestDeterministicMetricsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fig7 and suite workloads twice")
	}
	for _, w := range []string{"fig7", "suite"} {
		a, b := tracedRun(t, w), tracedRun(t, w)
		for _, name := range deterministic {
			va, ok := a.values[name]
			if !ok {
				t.Fatalf("%s: %s not reported", w, name)
			}
			if vb := b.values[name]; va != vb {
				t.Errorf("%s: %s = %v, then %v", w, name, va, vb)
			}
		}
		if a.values["spill_cost"] == 0 || a.values["coalesce.rounds"] == 0 || a.values["color.scan_steps"] == 0 {
			t.Errorf("%s: deterministic metrics are empty: %v", w, a.values)
		}
	}
}

// The matula-beck heuristic cannot allocate GRADNT at the paper's 16+8
// registers. The suite keeps the family and counts that op as failed in
// every round; it does not make the run incorrect.
func TestSuiteCountsMatulaBeckGRADNTFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the suite workload")
	}
	r := tracedRun(t, "suite")
	rounds := 3 // seconds 0: one untraced round, then two traced rounds
	if r.failed != rounds {
		t.Fatalf("failed = %d, want one per round (%d): %v", r.failed, rounds, r.failures)
	}
	for _, f := range r.failures {
		if !strings.HasPrefix(f, "CEDETA/matula-beck:") || !strings.Contains(f, "GRADNT") {
			t.Errorf("unexpected failure %q", f)
		}
	}
	if got, want := r.values["failed_frac"], float64(rounds)/float64(r.attempted); got != want {
		t.Errorf("failed_frac = %v, want %v", got, want)
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var bj struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

// fakeAllocd answers /v1/alloc like allocd, counting requests in flight.
func fakeAllocd(t *testing.T, delay time.Duration, inflight, maxInflight *atomic.Int32) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inflight.Add(1)
		defer inflight.Add(-1)
		for {
			m := maxInflight.Load()
			if n <= m || maxInflight.CompareAndSwap(m, n) {
				break
			}
		}
		body, _ := io.ReadAll(r.Body)
		time.Sleep(delay)
		if strings.Contains(string(body), "HOT") {
			w.Header().Set("X-Cache", "hit")
		} else {
			w.Header().Set("X-Cache", "miss")
		}
		io.WriteString(w, fakeReply)
	}))
	t.Cleanup(srv.Close)
	return srv
}

const fakeReply = `{"units":[{"unit":"U","spill_cost":2,"phase_ns":{"build":1000000}}],"spill_cost_total":2}`

// fakeLoadgen drives srv with a hot set of nine items, like allocd-mix.
func fakeLoadgen(srv *httptest.Server, conns int) *loadgen {
	var hot []*item
	for i := 0; i < 9; i++ {
		hot = append(hot, &item{name: fmt.Sprint("hot", i), hot: true, body: []byte(`{"source":"HOT"}`), want: []byte(fakeReply)})
	}
	return &loadgen{client: srv.Client(), base: srv.URL, conns: conns,
		tr: &traffic{seed: 1, rng: rand.New(rand.NewSource(1)), hot: hot}}
}

func TestOpenLoopKeepsScheduleAndConnectionBound(t *testing.T) {
	var inflight, maxInflight atomic.Int32
	srv := fakeAllocd(t, 2*time.Millisecond, &inflight, &maxInflight)
	lg := fakeLoadgen(srv, 2)
	rec := newRecorder()
	n := 10 * (9 + missPerDeck) // ten whole decks
	ss, aborted := lg.phase(400, n, rec, 0)
	if aborted || len(ss) != n {
		t.Fatalf("phase sent %d of %d (aborted %v)", len(ss), n, aborted)
	}
	if m := maxInflight.Load(); m > 2 {
		t.Fatalf("%d requests in flight, want at most 2", m)
	}
	r := newRun()
	account(r, ss)
	if !r.correct || r.failed != 0 || r.attempted != n {
		t.Fatalf("correct %v, failed %d of %d: %v", r.correct, r.failed, r.attempted, r.failures)
	}
	for i := 1; i < len(ss); i++ {
		if gap := ss[i].due.Sub(ss[i-1].due); gap != 2500*time.Microsecond {
			t.Fatalf("due times %v apart, want 2.5ms", gap)
		}
		if ss[i].send.Before(ss[i].due) {
			t.Fatalf("request %d sent before it was due", i)
		}
	}
	if got := len(rec.spans); got != 3*n {
		t.Fatalf("%d spans, want 3 per request", got)
	}
	// A deck is the nine hot items and missPerDeck misses.
	if misses := lg.tr.misses; misses != 10*missPerDeck {
		t.Fatalf("%d misses among %d requests, want %d", misses, n, 10*missPerDeck)
	}
}

func TestOverloadedRungStopsEarlyAndFails(t *testing.T) {
	var inflight, maxInflight atomic.Int32
	srv := fakeAllocd(t, 20*time.Millisecond, &inflight, &maxInflight)
	lg := fakeLoadgen(srv, 2)
	// Two connections at 20 ms serve 100 requests per second; 400 per
	// second builds a backlog that passes 50 ms within a few requests.
	ss, aborted := lg.phase(400, 400, nil, 50*time.Millisecond)
	if !aborted || len(ss) >= 400 {
		t.Fatalf("overloaded phase sent %d of 400 (aborted %v)", len(ss), aborted)
	}
	if st := stats(400, ss); st.BacklogMS < 50 {
		t.Fatalf("backlog %.1f ms after the abort, want more than 50", st.BacklogMS)
	}
}

// A hot reply whose bytes differ from the warmed reply, a hot request
// that does not hit, or a miss-pool request that does: each makes the
// run incorrect.
func TestWrongHitIsIncorrect(t *testing.T) {
	for _, tc := range []struct {
		name       string
		hot, other string // X-Cache for hot-set and miss-pool requests
		want       string // the reply every hot item expects
		wrong      int    // of one deck: 9 hot items and missPerDeck misses
	}{
		{"hit bytes differ", "hit", "miss", `{"units":[]}`, 9},
		{"hot misses", "miss", "miss", fakeReply, 9},
		{"hot shared", "shared", "miss", fakeReply, 9},
		{"miss hits", "hit", "hit", fakeReply, missPerDeck},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				body, _ := io.ReadAll(r.Body)
				if strings.Contains(string(body), "HOT") {
					w.Header().Set("X-Cache", tc.hot)
				} else {
					w.Header().Set("X-Cache", tc.other)
				}
				io.WriteString(w, fakeReply)
			}))
			defer srv.Close()
			lg := fakeLoadgen(srv, 1)
			for _, it := range lg.tr.hot {
				it.want = []byte(tc.want)
			}
			ss, _ := lg.phase(200, 9+missPerDeck, nil, 0) // one deck
			r := newRun()
			account(r, ss)
			if r.correct || r.failed != tc.wrong {
				t.Fatalf("correct %v with %d failed, want %d wrong replies: %v", r.correct, r.failed, tc.wrong, r.failures)
			}
		})
	}
}
