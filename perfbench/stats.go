package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles are the percentiles op_tail_ms may report, highest
// first.
var tailPercentiles = []float64{99, 95, 90, 75, 50}

// minBeyondTail is how many samples must lie beyond the reported tail
// percentile.
const minBeyondTail = 10

// tail returns the highest percentile of tailPercentiles with at least
// minBeyondTail samples above it, and the sample at that percentile
// (nearest rank). ok is false when even the median has fewer than
// minBeyondTail samples beyond it.
func tail(xs []float64) (pct, value float64, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
		if rank < 1 || n-rank < minBeyondTail {
			continue
		}
		return p, s[rank-1], true
	}
	return 0, 0, false
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
