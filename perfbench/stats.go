package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// dist summarizes raw samples with exact order statistics. Nothing is
// interpolated: every figure is one of the samples.
type dist struct {
	N       int     `json:"n"`
	Q1      float64 `json:"q1"`
	P50     float64 `json:"p50"`
	Q3      float64 `json:"q3"`
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail"`
	Beyond  int     `json:"beyond"` // samples strictly above the tail rank
	P90     float64 `json:"p90"`
	P95     float64 `json:"p95"`
	P98     float64 `json:"p98"`
	P99     float64 `json:"p99"`
	Max     float64 `json:"max"`
}

// rank returns the nearest-rank index of percentile pct (0 < pct <= 100)
// in a sample of n: the smallest index with at least pct% of the
// samples at or below it.
func rank(n int, pct float64) int {
	i := int(math.Ceil(pct/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// orderStat returns the nearest-rank percentile of xs (sorted in place).
func orderStat(xs []float64, pct float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), pct)]
}

// summarize sorts xs in place and reports its quartiles and the tail
// percentile tailPct.
func summarize(xs []float64, tailPct float64) dist {
	d := dist{N: len(xs), TailPct: tailPct}
	if len(xs) == 0 {
		return d
	}
	sort.Float64s(xs)
	d.Q1 = xs[rank(len(xs), 25)]
	d.P50 = xs[rank(len(xs), 50)]
	d.Q3 = xs[rank(len(xs), 75)]
	t := rank(len(xs), tailPct)
	d.Tail = xs[t]
	d.Beyond = len(xs) - 1 - t
	d.P90 = xs[rank(len(xs), 90)]
	d.P95 = xs[rank(len(xs), 95)]
	d.P98 = xs[rank(len(xs), 98)]
	d.P99 = xs[rank(len(xs), 99)]
	d.Max = xs[len(xs)-1]
	return d
}

// tailBlocks is how many consecutive blocks a run's op latencies are
// cut into for op_ms_p50 and op_ms_tail.
const tailBlocks = 4

// blockStat cuts xs, in the order the ops ran, into tailBlocks
// consecutive blocks, takes percentile pct of each block, and returns
// the median block's value with all of them. The host this benchmark
// runs on slows down in bursts of a few seconds; a burst then moves
// one block, not the metric.
func blockStat(xs []float64, pct float64) (float64, []float64) {
	var per []float64
	for k := 0; k < tailBlocks; k++ {
		b := append([]float64(nil), xs[k*len(xs)/tailBlocks:(k+1)*len(xs)/tailBlocks]...)
		per = append(per, orderStat(b, pct))
	}
	return medianOf(per), per
}

// host is the fingerprint every report carries, so that two reports
// are only compared when they come from the same machine and build.
type host struct {
	CPU          string `json:"cpu"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func fingerprint(root string) host {
	h := host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	h.SourceSHA256 = sourceDigest(root)
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes every Go source and go.mod under root, skipping
// build output, so a checkout without version-control data still
// identifies the code it measured.
func sourceDigest(root string) string {
	sum := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		sum.Write([]byte(rel))
		sum.Write([]byte{0})
		sum.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// resetHWM restarts a process's peak resident set size from its
// current size (Linux: 5 written to /proc/<pid>/clear_refs).
func resetHWM(pid string) error {
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// vmHWM reads a process's peak resident set size in MB from
// /proc/<pid>/status ("self" for this process).
func vmHWM(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, os.ErrNotExist
}
