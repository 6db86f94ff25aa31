package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"regalloc/internal/graphgen"
	"regalloc/internal/reqtrace"
)

// fakeAllocd mimics the service surface the driver touches: /healthz
// and /v1/alloc with an X-Cache header (miss on a body's first
// sighting, hit after — the real cache's observable behaviour).
func fakeAllocd(t *testing.T) *httptest.Server {
	t.Helper()
	var mu sync.Mutex
	seen := map[string]bool{}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/v1/alloc", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Source string `json:"source"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Source == "" {
			w.WriteHeader(http.StatusBadRequest)
			w.Write([]byte(`{"error":{"code":"bad_body","message":"bad"}}`))
			return
		}
		mu.Lock()
		hit := seen[req.Source]
		seen[req.Source] = true
		mu.Unlock()
		if hit {
			w.Header().Set("X-Cache", "hit")
		} else {
			w.Header().Set("X-Cache", "miss")
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"input":"src","units":[]}` + "\n"))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func TestCorpusDeterministicAndMixed(t *testing.T) {
	a, err := buildCorpus(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildCorpus(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Items) != len(b.Items) {
		t.Fatalf("corpus size changed between builds: %d vs %d", len(a.Items), len(b.Items))
	}
	for i := range a.Items {
		if string(a.Items[i].Body) != string(b.Items[i].Body) {
			t.Fatalf("item %d (%s) not deterministic", i, a.Items[i].Name)
		}
	}
	if a.Sources == 0 || a.Graphs == 0 || a.Fuzzed == 0 {
		t.Fatalf("corpus not mixed: %d sources, %d graphs, %d fuzzed", a.Sources, a.Graphs, a.Fuzzed)
	}
	// Every body must be a decodable JSON request with a source.
	for _, it := range a.Items {
		var req struct {
			Source string `json:"source"`
		}
		if err := json.Unmarshal(it.Body, &req); err != nil || req.Source == "" {
			t.Fatalf("item %s: body not a valid request: %v\n%s", it.Name, err, it.Body)
		}
	}
}

func TestRunLoadClosedLoop(t *testing.T) {
	ts := fakeAllocd(t)
	corpus, err := buildCorpus(1)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := runLoad(loadConfig{
		Addr: ts.URL, Duration: 300 * time.Millisecond, Conc: 4, Corpus: corpus, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if lt.Mode != "closed" || lt.Requests == 0 {
		t.Fatalf("loadtest = %+v", lt)
	}
	if lt.Errors != 0 || lt.ErrorRate != 0 {
		t.Fatalf("errors against the fake: %d (%s)", lt.Errors, sortedStatusCodes(lt.Statuses))
	}
	if lt.Latency.Count != lt.Requests || lt.Latency.P99NS < lt.Latency.P50NS {
		t.Fatalf("latency = %+v for %d requests", lt.Latency, lt.Requests)
	}
	// The corpus is finite, so a multi-hundred-request run must see
	// repeats — i.e. a nonzero hit rate.
	if lt.Requests > int64(2*len(corpus.Items)) && lt.Cache.HitRate == 0 {
		t.Fatalf("no cache hits over %d requests on a %d-item corpus", lt.Requests, len(corpus.Items))
	}
	if lt.Cache.Misses == 0 {
		t.Fatal("no misses recorded: X-Cache accounting broken")
	}
	// Every request was minted a trace identity, so a run with
	// successes must retain slow-trace IDs — well-formed, distinct,
	// and slowest-first would need the fake to control latency, but
	// shape and count are checkable here.
	if len(lt.SlowTraceIDs) == 0 {
		t.Fatal("no slow_trace_ids retained over a successful run")
	}
	if len(lt.SlowTraceIDs) > maxSlowTraces {
		t.Fatalf("%d slow_trace_ids, cap is %d", len(lt.SlowTraceIDs), maxSlowTraces)
	}
	seen := map[string]bool{}
	for _, id := range lt.SlowTraceIDs {
		if len(id) != 32 {
			t.Fatalf("slow trace ID %q is not 32 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("slow trace ID %q retained twice", id)
		}
		seen[id] = true
	}
	if len(lt.ErrorTraceIDs) != 0 {
		t.Fatalf("error_trace_ids = %v with zero errors", lt.ErrorTraceIDs)
	}
}

// TestFireSendsTraceparent pins the client half of the trace
// contract: every request carries a valid W3C traceparent header, a
// fresh trace per request, and the collector retains the same trace
// ID the server saw.
func TestFireSendsTraceparent(t *testing.T) {
	var mu sync.Mutex
	var headers []string
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/alloc", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		headers = append(headers, r.Header.Get("traceparent"))
		mu.Unlock()
		w.Write([]byte(`{"input":"src","units":[]}` + "\n"))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	col := newCollector()
	item := corpusItem{Name: "a", Kind: "src", Body: []byte(`{"source":"a <- 1"}`)}
	fire(ts.Client(), ts.URL, item, col)
	fire(ts.Client(), ts.URL, item, col)

	if len(headers) != 2 {
		t.Fatalf("server saw %d traceparent headers, want 2", len(headers))
	}
	ids := map[string]bool{}
	for _, h := range headers {
		sc, err := reqtrace.Parse(h)
		if err != nil {
			t.Fatalf("traceparent %q does not parse: %v", h, err)
		}
		ids[sc.TraceID.String()] = true
	}
	if len(ids) != 2 {
		t.Fatalf("two requests shared a trace ID: %v", headers)
	}
	for _, s := range col.slow {
		if !ids[s.TraceID] {
			t.Fatalf("collector retained %q, server never saw it", s.TraceID)
		}
	}
	if len(col.slow) != 2 {
		t.Fatalf("collector retained %d slow traces, want 2", len(col.slow))
	}
}

// TestRunLoadFetchesFlightRecorder pins the post-run trace fetch: the
// report's traces section holds the flight-recorder records behind
// the retained trace IDs, slowest first.
func TestRunLoadFetchesFlightRecorder(t *testing.T) {
	var mu sync.Mutex
	records := map[string]reqtrace.RequestRecord{}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok\n")) })
	mux.HandleFunc("/v1/alloc", func(w http.ResponseWriter, r *http.Request) {
		sc, err := reqtrace.Parse(r.Header.Get("traceparent"))
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		mu.Lock()
		records[sc.TraceID.String()] = reqtrace.RequestRecord{
			TraceID: sc.TraceID.String(),
			DurNS:   int64(len(records) + 1),
			Status:  http.StatusOK,
		}
		mu.Unlock()
		w.Write([]byte(`{"input":"src","units":[]}` + "\n"))
	})
	mux.HandleFunc("/debug/requests", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		var resp struct {
			Requests []reqtrace.RequestRecord `json:"requests"`
		}
		for _, rec := range records {
			resp.Requests = append(resp.Requests, rec)
		}
		json.NewEncoder(w).Encode(resp)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	good := corpusItem{Name: "good", Kind: "src", Body: []byte(`{"source":"a <- 1"}`)}
	lt, err := runLoad(loadConfig{
		Addr: ts.URL, Duration: 200 * time.Millisecond, Conc: 2,
		Corpus: &corpus{Items: []corpusItem{good}, Sources: 1}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lt.SlowTraceIDs) == 0 {
		t.Fatal("no slow_trace_ids retained")
	}
	if len(lt.Traces) == 0 {
		t.Fatal("traces section empty: post-run /debug/requests fetch broken")
	}
	want := map[string]bool{}
	for _, id := range lt.SlowTraceIDs {
		want[id] = true
	}
	for i, tr := range lt.Traces {
		if !want[tr.TraceID] {
			t.Fatalf("traces[%d] = %q, not a retained trace ID", i, tr.TraceID)
		}
		if tr.Status != http.StatusOK {
			t.Fatalf("traces[%d].Status = %d", i, tr.Status)
		}
		if i > 0 && lt.Traces[i-1].DurNS < tr.DurNS {
			t.Fatalf("traces not sorted slowest first: %d before %d", lt.Traces[i-1].DurNS, tr.DurNS)
		}
	}
}

func TestRunLoadOpenLoop(t *testing.T) {
	ts := fakeAllocd(t)
	corpus, err := buildCorpus(1)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := runLoad(loadConfig{
		Addr: ts.URL, Duration: 300 * time.Millisecond, Conc: 4, Rate: 200, Corpus: corpus, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if lt.Mode != "open" || lt.RateRPS != 200 {
		t.Fatalf("loadtest = %+v", lt)
	}
	if lt.Requests == 0 || lt.Errors != 0 {
		t.Fatalf("requests=%d errors=%d", lt.Requests, lt.Errors)
	}
}

// TestOpenLoopPacing pins the absolute-schedule pacing: the attempt
// count (requests + dropped ticks) must match duration/interval
// almost exactly. The old loop slept the full interval after each
// tick's work, so OS sleep overshoot and bookkeeping compounded into
// a rate deficit that grew with the run.
func TestOpenLoopPacing(t *testing.T) {
	ts := fakeAllocd(t)
	corpus, err := buildCorpus(1)
	if err != nil {
		t.Fatal(err)
	}
	const rate, dur = 1000.0, 400 * time.Millisecond
	lt, err := runLoad(loadConfig{
		Addr: ts.URL, Duration: dur, Conc: 8, Rate: rate, Corpus: corpus, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	attempts := lt.Requests + lt.Dropped
	want := int64(rate * dur.Seconds())
	// The absolute schedule self-corrects late ticks, so the count is
	// exact up to the sliver of duration spent before the loop starts.
	if attempts < want-want/50 || attempts > want+2 {
		t.Fatalf("open loop made %d attempts over %v at %v rps, want ~%d", attempts, dur, rate, want)
	}
}

// TestOpenLoopUsesSeededOffsets pins that the open loop walks the
// corpus from the same per-worker seeded offsets as the closed loop.
// The old loop ignored them and replayed the corpus prefix from item
// 0 in request order every run.
func TestOpenLoopUsesSeededOffsets(t *testing.T) {
	var mu sync.Mutex
	got := map[string]int{}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok\n")) })
	mux.HandleFunc("/v1/alloc", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		got[string(body)]++
		mu.Unlock()
		w.Write([]byte(`{"input":"src","units":[]}` + "\n"))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	corpus, err := buildCorpus(1)
	if err != nil {
		t.Fatal(err)
	}
	// Conc*4 slots must exceed the ~60 total ticks so no tick can be
	// shed — a dropped tick never reaches the server and would make
	// the multiset below unreconstructable.
	const conc, seed = 16, 9
	lt, err := runLoad(loadConfig{
		Addr: ts.URL, Duration: 300 * time.Millisecond, Conc: conc, Rate: 200, Corpus: corpus, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if lt.Dropped != 0 {
		t.Fatalf("%d dropped ticks with slots > total ticks", lt.Dropped)
	}
	// Rebuild the expected multiset from the documented schedule: tick
	// t is virtual worker t%conc at position offsets[t%conc] + t/conc.
	rng := graphgen.NewRNG(seed)
	offsets := make([]int, conc)
	for i := range offsets {
		offsets[i] = rng.Intn(len(corpus.Items))
	}
	want := map[string]int{}
	for tick := 0; tick < int(lt.Requests); tick++ {
		it := corpus.Items[(offsets[tick%conc]+tick/conc)%len(corpus.Items)]
		want[string(it.Body)]++
	}
	if len(got) != len(want) {
		t.Fatalf("served %d distinct bodies, schedule predicts %d", len(got), len(want))
	}
	for body, n := range want {
		if got[body] != n {
			t.Fatalf("body %.40q served %d times, schedule predicts %d", body, got[body], n)
		}
	}
}

// TestTransportErrorLatencySeparate pins the /7 histogram split: a
// connection the server kills mid-request must land in error_latency,
// not in the SLO-facing latency quantiles. The old collector folded
// transport-failure durations (up to the full 30s client timeout)
// into the same histogram the p99 gate reads.
func TestTransportErrorLatencySeparate(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok\n")) })
	mux.HandleFunc("/v1/alloc", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Source string `json:"source"`
		}
		json.NewDecoder(r.Body).Decode(&req)
		if req.Source == "boom" {
			// Kill the connection without a response: the client sees
			// a transport error, exactly like a crashed backend.
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		w.Write([]byte(`{"input":"src","units":[]}` + "\n"))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	good := corpusItem{Name: "good", Kind: "src", Body: []byte(`{"source":"a <- 1"}`)}
	boom := corpusItem{Name: "boom", Kind: "src", Body: []byte(`{"source":"boom"}`)}
	lt, err := runLoad(loadConfig{
		Addr:     ts.URL,
		Duration: 200 * time.Millisecond,
		Conc:     2,
		Corpus:   &corpus{Items: []corpusItem{good, boom}, Sources: 2},
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if lt.Errors == 0 {
		t.Fatal("no transport errors provoked")
	}
	if lt.ErrorLatency == nil || lt.ErrorLatency.Count != lt.Errors {
		t.Fatalf("error_latency = %+v, want count %d", lt.ErrorLatency, lt.Errors)
	}
	if lt.Latency.Count != lt.Requests-lt.Errors {
		t.Fatalf("latency count %d includes failures (%d requests, %d errors)",
			lt.Latency.Count, lt.Requests, lt.Errors)
	}
	if lt.Statuses["0"] != lt.Errors {
		t.Fatalf("statuses = %v, want %d at status 0", lt.Statuses, lt.Errors)
	}
}

func TestRunLoadUnreachableTarget(t *testing.T) {
	corpus, err := buildCorpus(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runLoad(loadConfig{
		Addr: "http://127.0.0.1:1", Duration: time.Second, Conc: 1, Corpus: corpus,
	}); err == nil || !strings.Contains(err.Error(), "not reachable") {
		t.Fatalf("err = %v, want target-unreachable", err)
	}
}

func TestReportShapeAndGate(t *testing.T) {
	lt := &loadtestSection{
		Requests:     100,
		Errors:       0,
		ErrorRate:    0,
		Latency:      quantiles{Count: 100, P50NS: 1e6, P95NS: 5e6, P99NS: 9e6, MaxNS: 2e7},
		Cache:        cacheSummary{Hits: 80, Misses: 20, HitRate: 0.8},
		SlowTraceIDs: []string{"4bf92f3577b34da6a3ce929d0e0e4736", "00f067aa0ba902b700f067aa0ba902b7"},
	}
	r := newReport(lt)
	if r.Schema != "regalloc-bench/11" {
		t.Fatalf("schema %q", r.Schema)
	}
	if len(r.SchemaHistory) == 0 || !strings.HasPrefix(r.SchemaHistory[len(r.SchemaHistory)-1], r.Schema+": drops build_improvement_pct") {
		t.Fatalf("schema history %v", r.SchemaHistory)
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(base, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Same numbers: passes.
	if err := gate(lt, base, 5, 0); err != nil {
		t.Fatalf("gate on identical run: %v", err)
	}
	// Tail blown past the factor: fails, and the message hands the
	// operator the slowest trace IDs — the flight-recorder lookup keys.
	worse := *lt
	worse.Latency.P99NS = lt.Latency.P99NS * 50
	err = gate(&worse, base, 5, 0)
	if err == nil || !strings.Contains(err.Error(), "p99") {
		t.Fatalf("gate on 50x p99: %v", err)
	}
	for _, id := range lt.SlowTraceIDs {
		if !strings.Contains(err.Error(), id) {
			t.Fatalf("p99 gate failure %q omits slow trace %s", err, id)
		}
	}
	// Errors: fails even with a generous p99, naming the errored traces.
	failed := *lt
	failed.Errors, failed.ErrorRate = 3, 0.03
	failed.ErrorTraceIDs = []string{"aaaabbbbccccddddaaaabbbbccccdddd"}
	err = gate(&failed, base, 100, 0)
	if err == nil || !strings.Contains(err.Error(), "error rate") {
		t.Fatalf("gate on errors: %v", err)
	}
	if !strings.Contains(err.Error(), failed.ErrorTraceIDs[0]) {
		t.Fatalf("error-rate gate failure %q omits errored trace", err)
	}
	// Missing or sectionless baseline: loud failure, not a silent pass.
	if err := gate(lt, filepath.Join(t.TempDir(), "nope.json"), 5, 0); err == nil {
		t.Fatal("gate passed with a missing baseline")
	}
	empty := filepath.Join(t.TempDir(), "empty.json")
	os.WriteFile(empty, []byte(`{"schema":"regalloc-bench/8"}`), 0o644)
	if err := gate(lt, empty, 5, 0); err == nil || !strings.Contains(err.Error(), "loadtest") {
		t.Fatalf("gate on sectionless baseline: %v", err)
	}
}
