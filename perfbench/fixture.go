package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"ndss/internal/core"
	"ndss/internal/corpus"
	"ndss/internal/index"
)

// The shared fixture: a SynWeb-style corpus (the OpenWebText stand-in
// of internal/experiments) indexed with the paper's k=32.
const (
	corpusTexts  = 2000
	vocabSize    = 32000
	queryLen     = 64   // serve and ingest-live query length
	poolSize     = 1024 // serve query pool: 4x the server's 256-entry result cache
	shapeQueries = 256  // pool queries the paper-shape sweep runs
	setupRepeats = 5    // set-ups per untraced run; setup_s is their median
)

// corpusSeed seeds the fixture corpus (--corpus-seed); the workload seed
// drives everything else.
var corpusSeed int64 = 1

var buildOpts = index.BuildOptions{K: 32, Seed: 3, T: 25}

// synth generates n SynWeb-style texts: 100-700 tokens, Zipf 1.07 over a
// 32000-token vocabulary, 15% planting a mutated 64-token snippet of an
// earlier text.
func synth(seed int64, n int) (*corpus.Corpus, error) {
	return corpus.Synthesize(corpus.SynthConfig{
		NumTexts: n, MinLength: 100, MaxLength: 700, VocabSize: vocabSize,
		ZipfS: 1.07, Seed: seed, DupRate: 0.15, DupSnippetLen: 64, DupMutateProb: 0.05,
	})
}

// buildIndex builds c into a fresh directory under the OS temp dir and
// returns the build's wall time.
func buildIndex(c *corpus.Corpus) (string, time.Duration, error) {
	dir, err := os.MkdirTemp("", "perfbench-idx-")
	if err != nil {
		return "", 0, err
	}
	start := time.Now()
	if _, err := core.BuildIndex(c, dir, buildOpts); err != nil {
		os.RemoveAll(dir)
		return "", 0, fmt.Errorf("build index: %w", err)
	}
	return dir, time.Since(start), nil
}

// texts returns the texts of c in id order.
func texts(c *corpus.Corpus) [][]uint32 {
	out := make([][]uint32, c.NumTexts())
	for i := range out {
		out[i] = c.Text(uint32(i))
	}
	return out
}

// queryPool draws n queries of the given length: one in every
// plantedEvery slots is a planted near-duplicate (a corpus slice with 10%
// of its tokens mutated), the rest are random tokens.
func queryPool(c *corpus.Corpus, n, length int, seed int64, plantedEvery int) [][]uint32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]uint32, 0, n)
	for len(out) < n {
		if len(out)%plantedEvery == 0 {
			if q, _, _, ok := corpus.PlantQuery(c, length, 0.1, vocabSize, rng); ok {
				out = append(out, q)
				continue
			}
		}
		q := make([]uint32, length)
		for j := range q {
			q[j] = uint32(rng.Intn(vocabSize))
		}
		out = append(out, q)
	}
	return out
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// rssPeakMB reads the process's peak resident set size (VmHWM).
func rssPeakMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := bytes.Fields(sc.Bytes())
		if len(f) >= 2 && string(f[0]) == "VmHWM:" {
			kb, err := strconv.ParseFloat(string(f[1]), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// resetPeakRSS lowers the kernel's peak-RSS mark (VmHWM) to the current
// RSS after returning free heap to the OS, so rss_peak_mb covers the
// timed run and not input generation (training the memorize workload's
// language model alone peaks near 0.6 GB).
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// cpuTicks is the first line of /proc/stat: the time all CPUs spent, in
// clock ticks, and the part of it the hypervisor stole.
type cpuTicks struct{ total, steal int64 }

// readCPUTicks reads /proc/stat. Where it cannot, or the kernel reports
// no steal time, it returns zeros and the steal share reads as 0.
func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	// user nice system idle iowait irq softirq steal; guest time is
	// counted in user already.
	for i, v := range f[1:9] {
		n, err := strconv.ParseInt(string(v), 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t
}

// rate is tokens per second.
func rate(tokens int64, took time.Duration) float64 {
	return float64(tokens) / took.Seconds()
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// quantileMS returns the q-quantile of ds (linear interpolation), in ms.
func quantileMS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	hi := min(lo+1, len(s)-1)
	v := float64(s[lo]) + (pos-float64(lo))*float64(s[hi]-s[lo])
	return v / float64(time.Millisecond)
}
