package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported tail percentile.
// A p99 over 200 samples rests on two observations; the benchmark reports
// the highest percentile that still has minTail samples beyond it instead.
const minTail = 10

// Dist is a latency (or duration) sample summarized the way every timing
// in a result is reported: median, a tail percentile and the sample count.
type Dist struct {
	N      int
	P50    float64
	Tail   float64
	TailAt float64 // percentile actually reported, e.g. 99 or 98.2
}

// tailRank returns the 1-based nearest rank of the highest percentile ≤ q
// that has at least minTail samples beyond it, and that percentile. With
// too few samples for any tail it falls back to the median's rank.
func tailRank(n int, q float64) (rank int, at float64) {
	if n == 0 {
		return 0, 0
	}
	rank = int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if most := n - minTail; rank > most {
		if most < 1 {
			rank = (n + 1) / 2
			return rank, 100 * float64(rank) / float64(n)
		}
		return most, 100 * float64(most) / float64(n)
	}
	return rank, 100 * q
}

// summarize reports the median of xs and the tail percentile nearest to q
// that tailRank allows.
func summarize(xs []float64, q float64) Dist {
	if len(xs) == 0 {
		return Dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank, at := tailRank(len(s), q)
	return Dist{N: len(s), P50: median(s), Tail: s[rank-1], TailAt: at}
}

// median of a sample (a sorted copy is taken).
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

// Windowed summarizes the calmer half of a measured phase. The phase is
// split into equal windows. The median and the completion rate are taken
// over the samples of the half of the windows with the lowest median; the
// tail is taken over the pooled samples of the half with the lowest tail.
//
// Interference from outside the benchmark (other tenants of a shared host
// stealing its CPUs, or its disk) only ever slows a window down. On the
// 2-core reference host it came and went within a run and moved the whole
// phase's tail and throughput from run to run, while the calmer half of
// the windows tracked what the program itself does.
//
// A list phase mixes the palette's shapes, whose latencies differ twenty-
// fold. Pooled, a median would follow which shapes the kept windows
// happened to draw. So a window's median is taken over latencies relative
// to their own shape's median over the phase, and P50 is the geometric
// mean over the shapes of each shape's median in the kept windows. With a
// single shape both reduce to the plain median.
type Windowed struct {
	Dist
	Windows int     // windows kept, of phaseWindows
	Shapes  int     // list palette shapes behind P50
	Rate    float64 // completions per second in the windows kept for the median
}

// phaseWindows is how many windows a measured phase is split into.
const phaseWindows = 10

// windowed summarizes the successful records that match, by the window
// their start (closed loop) or due time (open loop) falls in.
func windowed(recs []rec, phase time.Duration, match func(opKind) bool, q float64) Windowed {
	var ok []rec
	byShape := map[int][]float64{}
	for _, r := range recs {
		if r.Err == nil && match(r.Kind) {
			ok = append(ok, r)
			byShape[r.Shape] = append(byShape[r.Shape], r.Lat.Seconds())
		}
	}
	shapeMed := map[int]float64{}
	for sh, xs := range byShape {
		shapeMed[sh] = median(xs)
	}
	lat := make([][]float64, phaseWindows)
	rel := make([][]float64, phaseWindows)
	shp := make([][]int, phaseWindows)
	for _, r := range ok {
		w := int(int64(r.At) * phaseWindows / int64(phase))
		if w >= phaseWindows {
			w = phaseWindows - 1
		}
		lat[w] = append(lat[w], r.Lat.Seconds())
		rel[w] = append(rel[w], r.Lat.Seconds()/shapeMed[r.Shape])
		shp[w] = append(shp[w], r.Shape)
	}
	const keep = (phaseWindows + 1) / 2
	kept := map[int][]float64{}
	n := 0
	for _, w := range calmest(rel, keep, median) {
		for i, x := range lat[w] {
			kept[shp[w][i]] = append(kept[shp[w][i]], x)
		}
		n += len(lat[w])
	}
	shapes := make([]int, 0, len(kept))
	for sh := range kept {
		shapes = append(shapes, sh)
	}
	sort.Ints(shapes)
	meds := make([]float64, len(shapes))
	for i, sh := range shapes {
		meds[i] = median(kept[sh])
	}
	mid := Dist{N: n, P50: geoMean(meds)}
	var pooled []float64
	for _, w := range calmest(lat, keep, func(xs []float64) float64 { return summarize(xs, q).Tail }) {
		pooled = append(pooled, lat[w]...)
	}
	tail := summarize(pooled, q)
	mid.Tail, mid.TailAt = tail.Tail, tail.TailAt
	window := phase.Seconds() / phaseWindows
	return Windowed{Dist: mid, Windows: keep, Shapes: len(kept), Rate: float64(n) / (keep * window)}
}

// geoMean is the geometric mean of positive values; 0 for none.
func geoMean(xs []float64) float64 {
	switch len(xs) {
	case 0:
		return 0
	case 1:
		return xs[0]
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// calmest returns the keep windows with the lowest score. A window
// without samples ranks last: nothing completed in it.
func calmest(per [][]float64, keep int, score func([]float64) float64) []int {
	scores := make([]float64, len(per))
	idx := make([]int, len(per))
	for w, xs := range per {
		idx[w] = w
		scores[w] = math.Inf(1)
		if len(xs) > 0 {
			scores[w] = score(xs)
		}
	}
	sort.SliceStable(idx, func(i, j int) bool { return scores[idx[i]] < scores[idx[j]] })
	return idx[:keep]
}
