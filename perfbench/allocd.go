package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"regalloc"
	"regalloc/internal/cachekey"
	"regalloc/internal/fuzzgen"
	"regalloc/internal/graphgen"
	"regalloc/internal/ig"
	"regalloc/internal/workloads"
)

// The allocd-mix traffic. METRICS.md records why each value was chosen.
const (
	allocdTailPct = 98                     // op_ms_tail percentile: 500 requests a block keep 10 beyond it
	missPerDeck   = 4                      // a deck is the 9 hot items and 4 misses: 9/13 of requests hit
	fixedRate     = 100                    // open-loop requests per second of the fixed-rate phase
	fixedRequests = 2000                   // requests in the fixed-rate phase
	missK         = 6                      // kint = kfloat of the miss pool's fuzzgen subroutines
	latencyLimit  = 250 * time.Millisecond // p99 limit a ladder rung must meet
	minLagLimit   = 10 * time.Millisecond  // see lagLimit
	rungSeconds   = 2.0                    // length of one ladder rung
	setupAllocds  = 9                      // allocd starts per run; setup_s is their median
	overheadPairs = 4                      // untraced and traced parts in turn in the traced run
)

// item is one request body.
type item struct {
	name   string
	body   []byte
	graph  bool   // an .ig graph payload, else source
	hot    bool   // from the hot set
	want   []byte // hot: the cached reply, byte for byte
	source string // source payloads: the program text
	g      *ig.Graph
	costs  []float64
}

type sourceRequest struct {
	Source string `json:"source"`
	Input  string `json:"input,omitempty"`
	Heur   string `json:"heuristic,omitempty"`
	KInt   int    `json:"kint,omitempty"`
	KFloat int    `json:"kfloat,omitempty"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and ints always encode
	}
	return b
}

// hotSet is the paper's programs as source plus three generated
// interference graphs, as in allocload's corpus.
func hotSet() ([]*item, error) {
	var items []*item
	for _, w := range append(workloads.All(), workloads.Quicksort()) {
		items = append(items, &item{name: w.Program, hot: true, source: w.Source,
			body: mustJSON(sourceRequest{Source: w.Source})})
	}
	for _, gs := range []struct {
		name  string
		build func() (*ig.Graph, []float64)
	}{
		{"random-300", func() (*ig.Graph, []float64) { return graphgen.Random(300, 0.05, 11) }},
		{"cycle-64", func() (*ig.Graph, []float64) { return graphgen.Cycle(64) }},
		{"svdlike-40x30", func() (*ig.Graph, []float64) { return graphgen.SVDLike(40, 30, 6, 10, 3, 7) }},
	} {
		g, costs := gs.build()
		var sb strings.Builder
		if err := graphgen.WriteGraph(&sb, g, costs); err != nil {
			return nil, fmt.Errorf("%s: %w", gs.name, err)
		}
		items = append(items, &item{name: gs.name, hot: true, graph: true, g: g, costs: costs,
			body: mustJSON(sourceRequest{Source: sb.String(), Input: "ig", Heur: "briggs", KInt: 8, KFloat: 8})})
	}
	return items, nil
}

// traffic draws the request sequence from the seed, one shuffled deck
// of every hot item once and missPerDeck misses at a time, so every run
// sends the same mix in a seed-specific order.
type traffic struct {
	seed   uint64
	rng    *rand.Rand
	hot    []*item
	deck   []int // indices into hot; -1 is a miss
	misses int
	pool   []*item // misses generated ahead of the load, in order
	gen    uint64  // fuzzgen subroutines generated so far
	seen   map[cachekey.Key]bool
}

// newMiss returns the run's next fuzzgen subroutine whose compiled IR
// differs from every earlier one's. Distinct sources can compile to the
// same IR: a routine whose results are never read compiles to an empty
// body. allocd keys its cache on the compiled IR, so such a repeat
// rightly hits the cache, and it is not a miss.
func (t *traffic) newMiss() *item {
	if t.seen == nil {
		t.seen = map[cachekey.Key]bool{}
	}
	for {
		t.gen++
		s := fuzzgen.Generate(t.seed*1_000_003+t.gen, fuzzgen.Config{})
		// A source that does not compile is sent as it is: allocd
		// rejects it, and the request counts as failed.
		if p, err := regalloc.Compile(s); err == nil {
			k := cachekey.Program(p.IR.Funcs)
			if t.seen[k] {
				continue
			}
			t.seen[k] = true
		}
		return &item{name: fmt.Sprintf("fuzz-%d", t.gen), source: s,
			body: mustJSON(sourceRequest{Source: s, KInt: missK, KFloat: missK})}
	}
}

// prepare generates the first n misses, so that the load generator does
// not spend the CPU it shares with allocd on them while it sends.
func (t *traffic) prepare(n int) {
	for len(t.pool) < n {
		t.pool = append(t.pool, t.newMiss())
	}
}

func (t *traffic) next() *item {
	if len(t.deck) == 0 {
		for i := range t.hot {
			t.deck = append(t.deck, i)
		}
		for i := 0; i < missPerDeck; i++ {
			t.deck = append(t.deck, -1)
		}
		t.rng.Shuffle(len(t.deck), func(i, j int) { t.deck[i], t.deck[j] = t.deck[j], t.deck[i] })
	}
	k := t.deck[0]
	t.deck = t.deck[1:]
	if k >= 0 {
		return t.hot[k]
	}
	t.misses++
	if t.misses <= len(t.pool) {
		return t.pool[t.misses-1]
	}
	return t.newMiss()
}

// allocdProc is a running allocd subprocess.
type allocdProc struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startAllocd starts the service on a free loopback port and waits for
// /readyz.
func startAllocd(bin string, log io.Writer, client *http.Client) (*allocdProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stdout, cmd.Stderr = log, log
	// The service must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting allocd: %w", err)
	}
	p := &allocdProc{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := client.Get(p.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		select {
		case err := <-p.done:
			p.done <- err
			return nil, fmt.Errorf("allocd exited before ready: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, errors.New("allocd not ready after 20s")
		}
	}
}

// stop asks allocd to drain and exit, kills it if it does not, and
// waits until it has ended.
func (p *allocdProc) stop() error {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-p.done:
		return err
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		return fmt.Errorf("allocd did not drain: %v", <-p.done)
	}
}

// reply is the part of a /v1/alloc reply the benchmark checks: units
// for source payloads, nodes for graphs.
type reply struct {
	Units []struct {
		Unit      string           `json:"unit"`
		SpillCost float64          `json:"spill_cost"`
		PhaseNS   map[string]int64 `json:"phase_ns"`
	} `json:"units"`
	SpillTotal float64 `json:"spill_cost_total"`
	Nodes      int     `json:"nodes"`
	SpillCost  float64 `json:"spill_cost"`
}

// sample is one request of a load phase.
type sample struct {
	it       *item
	due      time.Time
	send     time.Time
	done     time.Time
	lag      time.Duration // generator lateness, not counting backlog
	status   int
	xcache   string
	err      string // non-empty: the request failed
	wrong    bool   // the reply was checked and found incorrect
	units    int
	serverNS int64 // summed phase_ns of a miss reply
	spill    float64
}

// roundTrip posts one body to /v1/alloc and reads the whole reply.
func roundTrip(client *http.Client, base string, body []byte) (status int, xcache string, out []byte, err error) {
	resp, err := client.Post(base+"/v1/alloc", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	out, err = io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, "", nil, fmt.Errorf("reading reply: %w", err)
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), out, nil
}

// post sends one request and checks the reply.
func post(client *http.Client, base string, s *sample) {
	s.send = time.Now()
	status, xcache, body, err := roundTrip(client, base, s.it.body)
	s.done = time.Now()
	s.status, s.xcache = status, xcache
	switch {
	case err != nil:
		s.err = err.Error()
		return
	case status != http.StatusOK:
		s.err = fmt.Sprintf("status %d: %.200s", status, body)
		return
	}
	// A hot item was warmed and must hit; a miss-pool item was never
	// sent before and must miss. Any other answer means the cache
	// handed back a result for a different request, or none it had.
	want := "miss"
	if s.it.hot {
		want = "hit"
	}
	if s.xcache != want {
		s.err, s.wrong = fmt.Sprintf("X-Cache %q, want %q", s.xcache, want), true
		return
	}
	var rp reply
	if err := json.Unmarshal(body, &rp); err != nil {
		s.err, s.wrong = "reply is not JSON: "+err.Error(), true
		return
	}
	if s.it.graph {
		s.units, s.spill = 1, rp.SpillCost
		if rp.Nodes == 0 {
			s.err, s.wrong = "graph reply without nodes", true
		}
	} else {
		s.units, s.spill = len(rp.Units), rp.SpillTotal
		if len(rp.Units) == 0 {
			s.err, s.wrong = "source reply without units", true
		}
		for _, u := range rp.Units {
			for _, ns := range u.PhaseNS {
				s.serverNS += ns
			}
		}
	}
	if s.it.hot && !bytes.Equal(body, s.it.want) {
		s.err, s.wrong = "hot-set hit differs from its cached reply", true
	}
}

// loadgen drives allocd open loop with at most conns requests in
// flight.
type loadgen struct {
	client *http.Client
	base   string
	conns  int
	tr     *traffic
}

// phase sends n requests at rate per second, each due at a fixed time
// from the phase start, and returns them once all have completed. A
// request waits for a free connection after its due time when both
// are busy; its latency still counts from the due time. With abort > 0
// the phase stops sending once a request could not be handed to a
// connection within abort of its due time: the backlog already breaks
// the latency limit, and only the requests sent are returned.
func (lg *loadgen) phase(rate float64, n int, rec *recorder, abort time.Duration) ([]sample, bool) {
	samples := make([]sample, n)
	jobs := make(chan int)
	finished := make(chan struct{})
	for w := 0; w < lg.conns; w++ {
		go func() {
			for i := range jobs {
				s := &samples[i]
				post(lg.client, lg.base, s)
				if rec != nil {
					op := rec.newOp()
					root := rec.add(op, 0, "loadgen.op", s.due, s.done)
					rec.add(op, root, "loadgen.wait", s.due, s.send)
					rec.add(op, root, "allocd.request", s.send, s.done)
				}
			}
			finished <- struct{}{}
		}()
	}
	start := time.Now().Add(10 * time.Millisecond)
	var handedOff time.Time
	sent := 0
	for i := range samples {
		s := &samples[i]
		s.it = lg.tr.next()
		s.due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(s.due); d > 0 {
			time.Sleep(d)
		}
		// Lateness is measured from when the request could first have
		// gone: its due time, or the previous hand-off if that waited
		// on busy connections (the service's backlog, not ours).
		ref := s.due
		if handedOff.After(ref) {
			ref = handedOff
		}
		if l := time.Since(ref); l > 0 {
			s.lag = l
		}
		jobs <- i
		handedOff = time.Now()
		sent = i + 1
		if abort > 0 && handedOff.Sub(s.due) > abort {
			break
		}
	}
	close(jobs)
	for w := 0; w < lg.conns; w++ {
		<-finished
	}
	return samples[:sent], sent < n
}

// phaseStats summarizes one load phase.
type phaseStats struct {
	Rate      float64 `json:"rate"`
	N         int     `json:"n"`
	Latency   dist    `json:"latency_ms"` // from due time
	LagP99    float64 `json:"lag_ms_p99"`
	Failed    int     `json:"failed"`
	BacklogMS float64 `json:"backlog_ms"` // last completion after the last due time
	Units     int     `json:"units"`
	ReqPerS   float64 `json:"req_per_s"`   // answered requests per second, first due time to last reply
	UnitsPerS float64 `json:"units_per_s"` // routines per second, the same way
	Pass      bool    `json:"pass"`
}

func stats(rate float64, ss []sample) phaseStats {
	ps := phaseStats{Rate: rate, N: len(ss)}
	var lat, lag []float64
	var lastDue, lastDone time.Time
	for i := range ss {
		s := &ss[i]
		lag = append(lag, ms(s.lag))
		if s.done.After(lastDone) {
			lastDone = s.done
		}
		if s.due.After(lastDue) {
			lastDue = s.due
		}
		if s.err != "" {
			ps.Failed++
			continue
		}
		lat = append(lat, ms(s.done.Sub(s.due)))
		ps.Units += s.units
	}
	ps.Latency = summarize(lat, 99)
	ps.LagP99 = orderStat(lag, 99)
	ps.BacklogMS = ms(lastDone.Sub(lastDue))
	if len(ss) > 0 {
		secs := lastDone.Sub(ss[0].due).Seconds()
		ps.ReqPerS = float64(len(lat)) / secs
		ps.UnitsPerS = float64(ps.Units) / secs
	}
	limit := ms(latencyLimit)
	ps.Pass = ps.Failed == 0 && ps.LagP99 <= lagLimit(rate) && ps.Latency.Tail <= limit && ps.BacklogMS <= limit
	return ps
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// latencyP50 is the median latency from due time of the answered
// requests in ss.
func latencyP50(ss []sample) float64 {
	var lat []float64
	for i := range ss {
		if s := &ss[i]; s.err == "" {
			lat = append(lat, ms(s.done.Sub(s.due)))
		}
	}
	return orderStat(lat, 50)
}

// lagLimit is how late, at p99, the generator may send at a rate before
// it counts as behind schedule: one inter-arrival gap, and no less than
// minLagLimit. Lateness below that is scheduling jitter, which the
// latency from due time already charges to the service.
func lagLimit(rate float64) float64 {
	return math.Max(ms(minLagLimit), 1000/rate)
}

// account folds a phase's requests into the run's op counts.
func account(r *run, ss []sample) {
	for i := range ss {
		s := &ss[i]
		r.attempted++
		switch {
		case s.wrong:
			r.wrong("%s: %s", s.it.name, s.err)
		case s.err != "":
			r.fail("%s: %s", s.it.name, s.err)
		}
	}
}

// scrape fetches a text endpoint of allocd.
func scrape(client *http.Client, url string) (string, error) {
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(b), nil
}

// field returns the value of the first line of text that starts with
// prefix, e.g. "# TotalAlloc = " in a heap profile or a metric name in
// /metrics.
func field(text, prefix string) (float64, error) {
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), prefix); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("no %q", strings.TrimSpace(prefix))
}

func totalAlloc(client *http.Client, base string) (float64, error) {
	text, err := scrape(client, base+"/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	return field(text, "# TotalAlloc = ")
}

// warm fills the cache with the hot set: the first request of each
// item misses and fills, the second must hit, and its reply is what
// every later hit must repeat byte for byte.
func warm(client *http.Client, base string, hot []*item) error {
	for _, it := range hot {
		for k, want := range []string{"miss", "hit"} {
			status, xcache, body, err := roundTrip(client, base, it.body)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d: %.200s", status, body)
			}
			if err != nil {
				return fmt.Errorf("warming %s: %w", it.name, err)
			}
			if xcache != want {
				return fmt.Errorf("warming %s: request %d answered X-Cache %q, want %q", it.name, k+1, xcache, want)
			}
			it.want = body
		}
	}
	return nil
}

func runAllocdMix(cfg config) (*run, error) {
	r := newRun()
	conns := runtime.NumCPU()
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
	defer client.CloseIdleConnections()
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(cfg.out, "allocd-"+cfg.workload+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()

	// Set-up: start allocd, wait for /readyz, warm the hot set. It runs
	// setupAllocds times; all but the last service are stopped again.
	var p *allocdProc
	var hot []*item
	var setups []float64
	for i := 0; i < setupAllocds; i++ {
		if p != nil {
			if err := p.stop(); err != nil {
				fmt.Fprintln(logf, "allocd exit:", err)
			}
		}
		t0 := time.Now()
		if hot, err = hotSet(); err != nil {
			return nil, err
		}
		if p, err = startAllocd(cfg.allocd, logf, client); err != nil {
			return nil, err
		}
		if err := warm(client, p.base, hot); err != nil {
			p.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer p.stop()
	r.values["setup_s"] = medianOf(setups)
	r.report["setup_s_reps"] = setups

	tr := &traffic{seed: cfg.seed, rng: rand.New(rand.NewSource(int64(cfg.seed))), hot: hot}
	tr.prepare(fixedRequests * missPerDeck / (len(hot) + missPerDeck) * 4)
	lg := &loadgen{client: client, base: p.base, conns: conns, tr: tr}
	if cfg.trace {
		return r, tracedMix(r, lg)
	}

	began := time.Now()
	heap0, err := totalAlloc(client, p.base)
	if err != nil {
		return nil, err
	}
	pid := strconv.Itoa(p.cmd.Process.Pid)
	stopRSS := make(chan struct{})
	rssDone := make(chan []float64)
	go func() { rssDone <- peaks(pid, stopRSS) }()
	fixed, _ := lg.phase(fixedRate, fixedRequests, nil, 0)
	close(stopRSS)
	rssMB := <-rssDone
	heap1, err := totalAlloc(client, p.base)
	if err != nil {
		return nil, err
	}
	if len(rssMB) == 0 {
		return nil, fmt.Errorf("no peak RSS reading of allocd")
	}
	account(r, fixed)
	fs := stats(fixedRate, fixed)
	if fs.LagP99 > lagLimit(fixedRate) {
		r.wrong("load generator ran %.1f ms late at p99 (limit %.0f ms): the run is invalid", fs.LagP99, lagLimit(fixedRate))
	}
	// One round of allocd-mix is one pass over the hot set: the inputs
	// every run sends, whatever the seed.
	spill := 0.0
	seen := map[*item]bool{}
	for i := range fixed {
		if s := &fixed[i]; s.err == "" && s.it.hot && !seen[s.it] {
			seen[s.it] = true
			spill += s.spill
		}
	}

	// Rate ladder: from twice the fixed rate, grow by 1.25x until a
	// rung fails, then bisect geometrically while the run's time lasts.
	// A rung fails only when it fails twice in a row, so one stall of
	// the machine does not decide the search; overloaded rungs stop
	// early, so the retry costs little. max_rps is the rate the highest
	// passing rung achieved, as measured.
	lo, hi := 0.0, 0.0
	best := fs // the highest passing phase
	if fs.Pass {
		lo = fixedRate
	} else {
		hi = fixedRate
		best = phaseStats{}
	}
	var rungs []phaseStats
	rung := func(rate float64) bool {
		for try := 0; try < 2; try++ {
			if time.Since(began).Seconds()+rungSeconds > cfg.seconds {
				return false
			}
			ss, aborted := lg.phase(rate, int(rate*rungSeconds), nil, latencyLimit)
			account(r, ss)
			st := stats(rate, ss)
			st.Pass = st.Pass && !aborted
			rungs = append(rungs, st)
			time.Sleep(200 * time.Millisecond) // let the service settle between rungs
			if st.Pass {
				best = st
				return true
			}
		}
		return false
	}
	for time.Since(began).Seconds()+rungSeconds <= cfg.seconds {
		var rate float64
		switch {
		case hi == 0 && lo == fixedRate:
			rate = 2 * fixedRate
		case hi == 0:
			rate = lo * 1.25
		case lo == 0:
			rate = hi / 1.25
		default:
			rate = math.Sqrt(lo * hi)
		}
		if lo > 0 && hi > 0 && hi/lo < 1.03 {
			break
		}
		if rung(rate) {
			lo = rate
		} else {
			hi = rate
		}
	}

	r.values["units_per_s"] = best.UnitsPerS
	var lat []float64 // in due order
	for i := range fixed {
		if s := &fixed[i]; s.err == "" {
			lat = append(lat, ms(s.done.Sub(s.due)))
		}
	}
	p50, p50s := blockStat(lat, 50)
	tail, tails := blockStat(lat, allocdTailPct)
	r.values["op_ms_p50"] = p50
	r.values["op_ms_tail"] = tail
	r.report["op_ms_blocks"] = map[string][]float64{"p50": p50s, "tail": tails}
	r.values["heap_mb_per_unit"] = (heap1 - heap0) / 1e6 / float64(max(fs.Units, 1))
	r.values["spill_cost"] = spill
	r.values["ok_frac"] = 1 - float64(r.failed)/float64(r.attempted)
	r.values["max_rps"] = best.ReqPerS
	r.values["peak_rss_mb"] = medianOf(rssMB)
	r.report["peak_rss_mb_windows"] = rssMB
	r.report["fixed_phase"] = fs
	r.report["ladder"] = rungs
	var raw [][2]float64 // due time since the phase start, latency
	for i := range fixed {
		s := &fixed[i]
		raw = append(raw, [2]float64{ms(s.due.Sub(fixed[0].due)), ms(s.done.Sub(s.due))})
	}
	r.report["fixed_phase_samples"] = raw
	return r, nil
}

// tracedMix is allocd-mix's per-layer run: the fixed-rate phase in
// overheadPairs pairs of an untraced and a traced part, taking turns so
// that both sides of trace.overhead_pct see the same stretch of the
// host's speed. The service's own layers show in its replies (X-Cache,
// phase_ns) and in /metrics, scraped around each traced part; the
// front end and the cache key, which every request pays in the
// service, are timed in process on the traced parts' inputs.
func tracedMix(r *run, lg *loadgen) error {
	part := fixedRequests / 2 / overheadPairs
	rec := newRecorder()
	var base, traced []sample
	var parts []phaseStats
	var cache [4]float64 // hits, misses, shared, evictions during the traced parts
	cacheNames := []string{"regalloc_cache_hits_total", "regalloc_cache_misses_total",
		"regalloc_cache_singleflight_shared_total", "regalloc_cache_evictions_total"}
	for i := 0; i < overheadPairs; i++ {
		ss, _ := lg.phase(fixedRate, part, nil, 0)
		account(r, ss)
		base = append(base, ss...)
		parts = append(parts, stats(fixedRate, ss))
		m0, err := scrape(lg.client, lg.base+"/metrics")
		if err != nil {
			return err
		}
		ss, _ = lg.phase(fixedRate, part, rec, 0)
		account(r, ss)
		traced = append(traced, ss...)
		parts = append(parts, stats(fixedRate, ss))
		m1, err := scrape(lg.client, lg.base+"/metrics")
		if err != nil {
			return err
		}
		for k, name := range cacheNames {
			a, err := field(m0, name+" ")
			if err != nil {
				return fmt.Errorf("/metrics: %w", err)
			}
			b, err := field(m1, name+" ")
			if err != nil {
				return fmt.Errorf("/metrics: %w", err)
			}
			cache[k] += b - a
		}
	}
	lag := 0.0
	for _, ps := range parts {
		lag = math.Max(lag, ps.LagP99)
	}
	if lag > lagLimit(fixedRate) {
		r.wrong("load generator ran %.1f ms late at p99 (limit %.0f ms): the run is invalid", lag, lagLimit(fixedRate))
	}

	var hit, miss, server, overhead []float64
	for i := range traced {
		s := &traced[i]
		if s.err != "" {
			continue
		}
		d := ms(s.done.Sub(s.send))
		switch s.xcache {
		case "hit":
			hit = append(hit, d)
		case "miss":
			miss = append(miss, d)
			server = append(server, ms(time.Duration(s.serverNS)))
			overhead = append(overhead, d-ms(time.Duration(s.serverNS)))
		}
	}
	// Each pool's share of the time the service spent answering: the
	// basis of missPerDeck, which aims at an even split.
	hitSum, missSum := sum(hit), sum(miss)
	r.report["pool_time_share"] = map[string]float64{
		"hit": ratio(hitSum, hitSum+missSum), "miss": ratio(missSum, hitSum+missSum),
		"hit_ms_mean": ratio(hitSum, float64(len(hit))), "miss_ms_mean": ratio(missSum, float64(len(miss))),
	}
	r.values["allocd.hit_ms_p50"] = orderStat(hit, 50)
	r.values["allocd.hit_ms_p99"] = orderStat(hit, 99)
	r.values["allocd.miss_ms_p50"] = orderStat(miss, 50)
	r.values["allocd.miss_ms_p99"] = orderStat(miss, 99)
	r.values["allocd.server_alloc_ms"] = orderStat(server, 50)
	r.values["allocd.miss_overhead_ms"] = orderStat(overhead, 50)
	var lags []float64
	for i := range traced {
		lags = append(lags, ms(traced[i].lag))
	}
	r.values["loadgen.lag_ms_p99"] = orderStat(lags, 99)
	lookups := cache[0] + cache[1] + cache[2]
	r.values["rescache.hit_frac"] = ratio(cache[0], lookups)
	r.values["rescache.lookups"] = lookups
	r.values["rescache.evictions"] = cache[3]

	l := newLayers()
	l.counting = true
	if err := frontEnd(rec, l, r, traced); err != nil {
		return err
	}
	l.finish(r, len(traced))
	r.values["cachekey.key_ms"] = l.ms["cachekey.key_ms"] / float64(len(traced))
	r.values["code_words"] = 0
	r.values["vm_cycles"] = 0
	r.values["copies_left"] = 0
	r.values["failed_frac"] = float64(r.failed) / float64(r.attempted)
	r.values["trace.overhead_pct"] = overheadPct(latencyP50(traced), latencyP50(base))
	r.report["overhead_parts"] = parts // untraced and traced in turn
	r.rec = rec
	return nil
}

// frontEnd times, in process, the work allocd does for every request
// before its cache lookup: the four front-end stages for source
// payloads, and the cache key. Each distinct input is timed once and
// weighted by how often the traced phase sent it.
func frontEnd(rec *recorder, l *layers, r *run, ss []sample) error {
	count := map[*item]int{}
	var order []*item
	for i := range ss {
		it := ss[i].it
		if count[it] == 0 {
			order = append(order, it)
		}
		count[it]++
	}
	for _, it := range order {
		one := newLayers()
		op := rec.newOp()
		root := rec.begin(op, 0, "frontend.input")
		var t0 time.Time
		if it.graph {
			t0 = time.Now()
			cachekey.Graph(it.g, it.costs)
		} else {
			prog, err := compileTraced(rec, one, op, root, it.source)
			if err != nil {
				return fmt.Errorf("%s: %w", it.name, err)
			}
			l.addCount("frontend.ir_instrs", float64(irInstrs(prog)))
			t0 = time.Now()
			cachekey.Program(prog.IR.Funcs)
		}
		o := regalloc.DefaultOptions()
		cachekey.Options(o)
		one.addMS("cachekey.key_ms", time.Since(t0))
		rec.end(root)
		for name, v := range one.ms {
			l.ms[name] += v * float64(count[it])
		}
	}
	r.report["frontend_distinct_inputs"] = len(order)
	return nil
}

func irInstrs(p *regalloc.Program) int {
	n := 0
	for _, f := range p.IR.Funcs {
		n += f.NumInstrs()
	}
	return n
}

// peaks reads a process's peak RSS for each 2 s window until stop is
// closed, restarting the high-water mark after every reading.
func peaks(pid string, stop <-chan struct{}) []float64 {
	var out []float64
	read := func() {
		if v, err := vmHWM(pid); err == nil {
			out = append(out, v)
		}
		resetHWM(pid)
	}
	resetHWM(pid)
	tick := time.NewTicker(2 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			read()
		case <-stop:
			read()
			return out
		}
	}
}
