package main

import (
	"context"
	"errors"
	"io"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestSameSeedSameRequests(t *testing.T) {
	gen := func(seed int64) (buys []op, sched []arrival, rounds [][]listSpec, probes []op) {
		for conn := 0; conn < buyConns; conn++ {
			s := newBuyStream(seed, conn, 6)
			for i := 0; i < 200; i++ {
				buys = append(buys, s.next())
			}
		}
		sched = browseSchedule(seed, 6, 2*time.Second)
		rounds = [][]listSpec{listRound(seed, 0), listRound(seed, 1)}
		rs := newReadStream(seed, 1, 6)
		for i := 0; i < 200; i++ {
			probes = append(probes, rs.next())
		}
		return buys, sched, rounds, probes
	}
	b1, s1, r1, p1 := gen(7)
	b2, s2, r2, p2 := gen(7)
	if !reflect.DeepEqual(b1, b2) || !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(p1, p2) {
		t.Fatal("the same seed generated different requests")
	}
	if daemonSeed(7) != daemonSeed(7) {
		t.Fatal("the same seed derived different daemon seeds")
	}
	b3, s3, r3, p3 := gen(8)
	if reflect.DeepEqual(b1, b3) || reflect.DeepEqual(s1, s3) || reflect.DeepEqual(r1, r3) || reflect.DeepEqual(p1, p3) {
		t.Fatal("different seeds generated identical request sequences")
	}
	if daemonSeed(7) == daemonSeed(8) {
		t.Fatal("different seeds derived the same daemon seed")
	}
}

func TestWorkloadMix(t *testing.T) {
	// Every tenant sees each purchase option equally often on buy.
	s := newBuyStream(3, 1, 6)
	count := map[[2]int]int{}
	for i := 0; i < 18*50; i++ {
		o := s.next()
		count[[2]int{o.Tenant, o.Option}]++
	}
	if len(count) != 18 {
		t.Fatalf("buy stream covers %d (tenant, option) pairs, want 18", len(count))
	}
	for k, n := range count {
		if n != 50 {
			t.Fatalf("(tenant, option) %v bought %d times, want 50", k, n)
		}
	}
	// Every list round lists each palette shape once.
	seen := map[shape]int{}
	for _, sp := range listRound(3, 4) {
		seen[shape{sp.Generator, sp.Rows}]++
		if sp.Generator == "" && len(sp.CSV) == 0 {
			t.Fatal("CSV spec without data")
		}
	}
	for _, sh := range palette {
		if seen[sh] != 1 {
			t.Fatalf("palette shape %v listed %d times in a round", sh, seen[sh])
		}
	}
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n        int
		q        float64
		wantRank int
		wantAt   float64
	}{
		{1000, 0.99, 990, 99},   // exactly ten beyond p99
		{5000, 0.99, 4950, 99},  // plenty beyond
		{500, 0.99, 490, 98},    // p99 would have 5 beyond: p98 has 10
		{432, 0.99, 422, 97.69}, // highest percentile with 10 beyond
		{11, 0.99, 1, 9.09},
		{5, 0.99, 3, 60}, // too few for any tail: the median
	}
	for _, c := range cases {
		rank, at := tailRank(c.n, c.q)
		if rank != c.wantRank || at < c.wantAt-0.01 || at > c.wantAt+0.01 {
			t.Errorf("tailRank(%d, %v) = %d, p%.2f; want %d, p%.2f", c.n, c.q, rank, at, c.wantRank, c.wantAt)
		}
		if c.n > minTail && c.n-rank < minTail {
			t.Errorf("n=%d: only %d samples beyond rank %d", c.n, c.n-rank, rank)
		}
	}
	xs := make([]float64, 500)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 500..1, unsorted
	}
	d := summarize(xs, 0.99)
	if d.N != 500 || d.Tail != 490 || d.P50 != 250.5 {
		t.Fatalf("summarize = %+v, want n=500 p50=250.5 tail=490", d)
	}
}

func TestOpenLoopCountsStallFromDueTime(t *testing.T) {
	// Ten requests due every 10ms; the server stalls 200ms on the first.
	// On one connection the later requests queue behind the stall, and
	// each one's latency must include that wait, measured from when it
	// was due rather than from when it could be sent.
	const stall = 200 * time.Millisecond
	var sched []arrival
	for i := 0; i < 10; i++ {
		sched = append(sched, arrival{Due: time.Duration(i) * 10 * time.Millisecond, Op: op{Kind: opCurve}})
	}
	var calls atomic.Int32
	exec := func(op) error {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		return nil
	}
	recs, late := openLoop(context.Background(), 1, sched, exec)
	if len(recs) != len(sched) || len(late) != len(sched) {
		t.Fatalf("got %d records and %d lateness samples for %d arrivals", len(recs), len(late), len(sched))
	}
	for i, r := range recs {
		// Request i is due at 10ms·i and cannot start before the stall ends.
		want := stall - sched[i].Due
		if r.Lat < want {
			t.Errorf("request %d (due %v): latency %v, want at least %v", i, sched[i].Due, r.Lat, want)
		}
	}
	// The dispatcher itself kept to the schedule despite the stall.
	for i, l := range late {
		if l > 100*time.Millisecond {
			t.Errorf("request %d dispatched %v late", i, l)
		}
	}
}

func TestCompareRefusesOtherNProc(t *testing.T) {
	a := &Result{Fingerprint: Fingerprint{NProc: 2}, Metrics: map[string]Metric{"buy_per_s": {Value: 1}}}
	b := &Result{Fingerprint: Fingerprint{NProc: 4}, Metrics: map[string]Metric{"buy_per_s": {Value: 1}}}
	if err := compare(io.Discard, a, b); !errors.Is(err, errNProc) {
		t.Fatalf("compare across nproc 2 and 4: %v, want errNProc", err)
	}
	b.Fingerprint.NProc = 2
	if err := compare(io.Discard, a, b); err != nil {
		t.Fatalf("compare on the same nproc: %v", err)
	}
}

func TestChecks(t *testing.T) {
	pts := []point{{1, 0.5, 10}, {2, 0.3, 15}, {4, 0.2, 20}}
	if err := checkCurve(pts); err != nil {
		t.Fatalf("arbitrage-free curve rejected: %v", err)
	}
	for _, bad := range [][]point{
		{{1, 0.5, 10}, {2, 0.3, 9}},  // price falls
		{{1, 0.5, 10}, {2, 0.3, 25}}, // price/x rises: two x=1 copies beat one x=2
	} {
		if err := checkCurve(bad); !errors.Is(err, errCheck) {
			t.Errorf("curve %v accepted", bad)
		}
	}
	ok := &purchase{X: 2, Price: 15, ExpectedError: 0.3, BrokerFee: 1.5, SellerProceeds: 13.5, Weights: make([]float64, 3)}
	if err := checkBuy(pts, 0, 2, 3, ok); err != nil {
		t.Fatalf("quality buy at a knot rejected: %v", err)
	}
	if err := checkBuy(pts, 1, 0.3, 3, ok); err != nil {
		t.Fatalf("error-budget buy at a knot rejected: %v", err)
	}
	mid := &purchase{X: 3, Price: 15, ExpectedError: 0.25, BrokerFee: 1.5, SellerProceeds: 13.5, Weights: make([]float64, 3)}
	if err := checkBuy(pts, 2, 15, 3, mid); err != nil {
		t.Fatalf("price-budget buy between knots rejected: %v", err)
	}
	wrongPrice := *ok
	wrongPrice.Price, wrongPrice.SellerProceeds = 16, 14.5
	wrongD := *ok
	wrongD.Weights = make([]float64, 2)
	for name, p := range map[string]*purchase{"price": &wrongPrice, "d": &wrongD} {
		if err := checkBuy(pts, 0, 2, 3, p); !errors.Is(err, errCheck) {
			t.Errorf("buy with wrong %s accepted", name)
		}
	}
	if err := sameBooks(books{Sales: 2, Gross: 30}, 2, 30); err != nil {
		t.Fatal(err)
	}
	if err := sameBooks(books{Sales: 2, Gross: 30}, 1, 15); !errors.Is(err, errCheck) {
		t.Fatal("lost sale accepted")
	}
}

func TestWindowedKeepsCalmerHalf(t *testing.T) {
	// 10 s of buys, 2000 per second; seconds 0-3 are disturbed (10 ms
	// each), the rest take 1 ms. The calmer half of the ten windows is
	// five undisturbed ones.
	phase := 10 * time.Second
	var recs []rec
	for i := 0; i < 20000; i++ {
		at := time.Duration(i) * phase / 20000
		lat := time.Millisecond
		if at < 4*time.Second {
			lat = 10 * time.Millisecond
		}
		recs = append(recs, rec{Kind: opBuy, At: at, Lat: lat})
	}
	recs = append(recs, rec{Kind: opBuy, At: 9 * time.Second, Err: errors.New("refused")})
	w := windowed(recs, phase, is(opBuy), 0.99)
	if w.N != 10000 || w.Windows != 5 || w.P50 != 1e-3 || w.Tail != 1e-3 || w.TailAt != 99 || w.Rate != 2000 {
		t.Fatalf("windowed = %+v, want 10000 samples from 5 windows, p50 = p99 = 1ms, 2000/s", w)
	}
	// A window where nothing completed ranks below every other.
	w = windowed(recs[:10000], phase, is(opBuy), 0.99)
	if w.N != 10000 || w.P50 != 10e-3 {
		t.Fatalf("half-empty phase: %+v, want the five busy windows", w)
	}
}

func TestWindowedScoresShapesByTheirOwnMedian(t *testing.T) {
	// Two list shapes, 1 ms and 20 ms. Seconds 0-3 are disturbed (every
	// latency tripled) and draw only the cheap shape; the rest draw both
	// evenly. Scored on raw latencies the disturbed windows would look
	// calmest; scored against each shape's own median they rank last.
	phase := 10 * time.Second
	var recs []rec
	for i := 0; i < 1000; i++ {
		at := time.Duration(i) * phase / 1000
		shape, lat := i%2, time.Millisecond
		if at < 4*time.Second {
			shape = 0
		}
		if shape == 1 {
			lat = 20 * time.Millisecond
		}
		if at < 4*time.Second {
			lat *= 3
		}
		recs = append(recs, rec{Kind: opList, At: at, Lat: lat, Shape: shape})
	}
	w := windowed(recs, phase, is(opList), 0.5)
	want := math.Sqrt(1e-3 * 20e-3)
	if w.Shapes != 2 || w.N != 500 || math.Abs(w.P50-want) > 1e-12 {
		t.Fatalf("windowed = %+v, want the five undisturbed windows, 2 shapes, p50 = %v", w, want)
	}
}

func TestCountedLoopMakesExactlyN(t *testing.T) {
	var calls atomic.Int64
	exec := func(op) error { calls.Add(1); return nil }
	recs := countedLoop(context.Background(), 3, 100, func(int) op { return op{Kind: opBuy} }, exec)
	if len(recs) != 100 || calls.Load() != 100 {
		t.Fatalf("%d records from %d calls, want exactly 100", len(recs), calls.Load())
	}
	// A failure stops the loop.
	calls.Store(0)
	exec = func(op) error {
		if calls.Add(1) == 40 {
			return errors.New("refused")
		}
		return nil
	}
	recs = countedLoop(context.Background(), 1, 100, func(int) op { return op{Kind: opBuy} }, exec)
	if len(recs) != 40 || recs[39].Err == nil {
		t.Fatalf("%d records after a failure on the 40th request, want 40 ending in the failure", len(recs))
	}
}
