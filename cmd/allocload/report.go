// report.go is the bench-json document allocload emits: schema
// regalloc-bench/11, which carries the loadtest section added in /6,
// the /7 error_latency split (transport failures quantified apart
// from service latency), and the /9 trace linkage — the trace IDs of
// the slowest and errored requests plus their flight-recorder span
// trees, fetched back from allocd after the run. The section's shape
// mirrors cmd/bench's latency quantiles so the two reports diff with
// the same tooling.
package main

import (
	"regalloc/internal/obs"
)

// quantiles summarizes one obs.LatencyHistogram the same way
// cmd/bench does: percentile estimates by linear interpolation
// within the fixed 1-2-5 buckets, clamped to the observed maximum.
type quantiles struct {
	Count  int64 `json:"count"`
	P50NS  int64 `json:"p50_ns"`
	P95NS  int64 `json:"p95_ns"`
	P99NS  int64 `json:"p99_ns"`
	MeanNS int64 `json:"mean_ns"`
	MaxNS  int64 `json:"max_ns"`
}

func quantilesOf(h obs.LatencyHistogram) quantiles {
	return quantiles{
		Count:  h.Count,
		P50NS:  h.Quantile(0.50).Nanoseconds(),
		P95NS:  h.Quantile(0.95).Nanoseconds(),
		P99NS:  h.Quantile(0.99).Nanoseconds(),
		MeanNS: h.Mean().Nanoseconds(),
		MaxNS:  h.MaxNS,
	}
}

type corpusSummary struct {
	Items   int `json:"items"`
	Sources int `json:"sources"`
	Graphs  int `json:"graphs"`
	Fuzzed  int `json:"fuzzed"`
}

type cacheSummary struct {
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	Shared  int64   `json:"shared"`
	HitRate float64 `json:"hit_rate"`
}

// loadtestSection is the regalloc-bench/6 addition: one load run's
// aggregate view of the service.
type loadtestSection struct {
	Target      string  `json:"target"`
	Mode        string  `json:"mode"` // closed or open
	DurationNS  int64   `json:"duration_ns"`
	Concurrency int     `json:"concurrency"`
	RateRPS     float64 `json:"rate_rps,omitempty"`

	Corpus corpusSummary `json:"corpus"`

	Requests   int64   `json:"requests"`
	Errors     int64   `json:"errors"`
	ErrorRate  float64 `json:"error_rate"`
	Dropped    int64   `json:"dropped,omitempty"` // open loop: ticks shed at the outstanding-request bound
	Throughput float64 `json:"throughput_rps"`

	// Latency covers only requests the service answered; transport
	// failures (connect errors, client timeouts) land in ErrorLatency
	// instead, so an outage cannot skew — or hide behind — the
	// SLO-facing p99.
	Latency      quantiles        `json:"latency"`
	ErrorLatency *quantiles       `json:"error_latency,omitempty"`
	Statuses     map[string]int64 `json:"statuses"`
	Cache        cacheSummary     `json:"cache"`

	// SlowTraceIDs names the slowest successfully answered requests,
	// slowest first; ErrorTraceIDs the first errored replies. Both are
	// lookup keys into allocd's flight recorder (GET /debug/requests),
	// its access log, and its /metrics exemplars; Traces carries what
	// the flight recorder still held for them when the run ended. New
	// in regalloc-bench/9.
	SlowTraceIDs  []string       `json:"slow_trace_ids"`
	ErrorTraceIDs []string       `json:"error_trace_ids,omitempty"`
	Traces        []traceSummary `json:"traces,omitempty"`
}

// traceSummary is one flight-recorder record fetched back from the
// target after the run: the span-tree evidence behind a
// slow_trace_ids or error_trace_ids entry.
type traceSummary struct {
	TraceID   string `json:"trace_id"`
	DurNS     int64  `json:"dur_ns"`
	Status    int    `json:"status"`
	Spans     int    `json:"spans"`
	Unit      string `json:"unit,omitempty"`
	Heuristic string `json:"heuristic,omitempty"`
	Cache     string `json:"cache,omitempty"`
	Error     bool   `json:"error,omitempty"`
}

// report is the bench-json envelope. allocload emits only the
// loadtest section; the shared schema string and history keep it
// diffable and archivable alongside cmd/bench's reports.
type report struct {
	Schema        string           `json:"schema"`
	SchemaHistory []string         `json:"schema_history"`
	Loadtest      *loadtestSection `json:"loadtest"`
}

// benchSchema and benchSchemaHistory are the shared bench-json
// lineage; cmd/bench carries the same strings.
const benchSchema = "regalloc-bench/11"

func benchSchemaHistory() []string {
	return []string{
		"regalloc-bench/3: runs, graphs, pcolor, build_improvement_pct",
		"regalloc-bench/4: adds phase_latency + run_latency (p50/p95/p99 over every rep); all /3 fields unchanged",
		"regalloc-bench/5: adds portfolio (one race per figure-7 routine: winner, margin, per-candidate table); all /4 fields unchanged",
		"regalloc-bench/6: adds loadtest (latency percentiles, error rate, cache hit rate from cmd/allocload against a running allocd); all /5 fields unchanged",
		"regalloc-bench/7: adds scale (10^5+-node power-law/mesh coloring per engine and worker count) and loadtest.error_latency in allocload reports; all /6 fields unchanged",
		"regalloc-bench/8: adds ssa (SSA-form chordal allocator over every figure-5 routine at (16,8) and (8,4), with Chaitin/Briggs costs on the same units); all /7 fields unchanged",
		"regalloc-bench/9: adds loadtest.slow_trace_ids/error_trace_ids/traces (trace IDs of the slowest and errored requests, with their flight-recorder records fetched from allocd's /debug/requests); all /8 fields unchanged",
		"regalloc-bench/10: adds irc (iterated register coalescing vs the Briggs conservative pre-pass: surviving copies per figure-5 routine) and irc_eliminated_pct; all /9 fields unchanged",
		"regalloc-bench/11: drops build_improvement_pct and the workers=4 runs (a unit allocates on one goroutine); runs has one entry per figure-7 routine",
	}
}

func newReport(lt *loadtestSection) *report {
	return &report{
		Schema:        benchSchema,
		SchemaHistory: benchSchemaHistory(),
		Loadtest:      lt,
	}
}
