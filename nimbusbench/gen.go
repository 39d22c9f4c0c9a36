package main

import (
	"bytes"
	"fmt"
	"math"
	//lint:ignore no-naked-rand the benchmark's inputs must not change when the program's own internal/rng streams do, or a change to internal/rng would be measured on other inputs than its parent
	"math/rand/v2"
	"strconv"
	"time"
)

// Every input of a run is derived here from the --seed argument. The daemon
// is told only its own -seed (daemonSeed) and receives the generated
// requests; it never learns which workload it is serving.

// Workload names; later changes cite these.
const (
	wlBuy    = "buy"
	wlBrowse = "browse"
	wlList   = "list"
)

var workloads = []string{wlBuy, wlBrowse, wlList}

// Load shape of each workload. Connection counts stay at or below nproc
// on the 2-core reference host.
const (
	buyConns      = 2
	browseConns   = 2
	browseRate    = 600.0 // requests/second: a fifth of the closed-loop buy rate, so a slowed host still has headroom
	browseBuyFrac = 0.10
	listConns     = 1
	listBuys      = 3 // buys per list cycle
	probeRead     = 3 * time.Second
	probeList     = 5 * time.Second
)

// stream returns the seeded generator for one input stream of a run.
// Distinct streams of one seed are independent; the same (seed, stream)
// always yields the same draws.
func stream(seed int64, id uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15^id))
}

// Stream identifiers.
const (
	streamDaemon uint64 = iota + 1
	streamBuy           // + connection index
	streamBrowse = streamBuy + 16
	streamList   = streamBrowse + 1
	streamProbe  = streamList + 1
	streamCSV    = streamProbe + 1
)

// daemonSeed is the -seed the daemon is started with.
func daemonSeed(seed int64) int64 {
	return 1 + stream(seed, streamDaemon).Int64N(1<<30)
}

// opKind is one kind of user request against the tenant routes.
type opKind uint8

const (
	opBuy      opKind = iota // POST /api/v1/datasets/{id}/buy
	opCurve                  // GET  /api/v1/datasets/{id}/curve?offering=&loss=
	opMenu                   // GET  /api/v1/datasets/{id}/menu
	opStats                  // GET  /api/v1/datasets/{id}/stats
	opDatasets               // GET  /api/v1/datasets
	opList                   // POST /api/v1/datasets
	opFetch                  // a new dataset's menu and curves, read after listing it
	opDelist                 // DELETE /api/v1/datasets/{id}
)

func (k opKind) String() string {
	return [...]string{"buy", "curve", "menu", "stats", "datasets", "list", "fetch", "delist"}[k]
}

// isRead reports whether k is one of the browse reads.
func (k opKind) isRead() bool { return k >= opCurve && k <= opDatasets }

// Purchase options, in the API's spelling.
var options = [3]string{"quality", "error-budget", "price-budget"}

// op is one abstract request. Loss and Knot are uniform fractions in
// [0, 1) that resolve against the served menu: the loss is the
// floor(Loss·len(losses))-th of the tenant's losses and the option value
// is taken from the floor(Knot·len(points))-th point of that curve, so the
// sequence depends on the seed alone.
type op struct {
	Kind   opKind
	Tenant int // index into the sorted tenant list
	Loss   float64
	Option int
	Knot   float64
}

// buyStream yields connection conn's closed-loop purchases on the buy
// workload: tenants round-robin (connections start on opposite sides of
// the ring), options rotating so that every tenant sees each option once
// per 3·tenants purchases, loss and knot seeded.
type buyStream struct {
	r       *rand.Rand
	conn    int
	tenants int
	i       int
}

func newBuyStream(seed int64, conn, tenants int) *buyStream {
	return &buyStream{r: stream(seed, streamBuy+uint64(conn)), conn: conn, tenants: tenants}
}

func (s *buyStream) next() op {
	i := s.i
	s.i++
	return op{
		Kind:   opBuy,
		Tenant: (i + s.conn*s.tenants/2) % s.tenants,
		Option: (i/s.tenants + s.conn) % len(options),
		Loss:   s.r.Float64(),
		Knot:   s.r.Float64(),
	}
}

// arrival is one open-loop request with its due time from the run start.
type arrival struct {
	Due time.Duration
	Op  op
}

// browseSchedule is the open-loop arrival schedule for the browse
// workload: Poisson arrivals at browseRate for the run's length, 10% buys
// and 90% reads of curves, menus, tenant stats and the dataset list.
func browseSchedule(seed int64, tenants int, length time.Duration) []arrival {
	r := stream(seed, streamBrowse)
	var out []arrival
	var t float64 // seconds
	for {
		t += r.ExpFloat64() / browseRate
		due := time.Duration(t * float64(time.Second))
		if due >= length {
			return out
		}
		out = append(out, arrival{Due: due, Op: browseOp(r, tenants)})
	}
}

func browseOp(r *rand.Rand, tenants int) op {
	o := op{Tenant: r.IntN(tenants), Loss: r.Float64(), Option: r.IntN(len(options)), Knot: r.Float64()}
	switch u := r.Float64(); {
	case u < browseBuyFrac:
		o.Kind = opBuy
	case u < 0.60:
		o.Kind = opCurve
	case u < 0.75:
		o.Kind = opMenu
	case u < 0.90:
		o.Kind = opStats
	default:
		o.Kind = opDatasets
	}
	return o
}

// readStream yields one connection's reads for the read probe that
// workloads without a read phase of their own run after the measured
// phase: the browse read mix, closed loop.
type readStream struct {
	r       *rand.Rand
	tenants int
}

func newReadStream(seed int64, conn, tenants int) *readStream {
	return &readStream{r: stream(seed, streamProbe+uint64(conn)<<8), tenants: tenants}
}

func (s *readStream) next() op {
	for {
		if o := browseOp(s.r, s.tenants); o.Kind != opBuy {
			return o
		}
	}
}

// shape is one entry of the list workload's palette. Rows stay at or
// below the generator's row count in the seeded Table 3 suite (scale
// 0.001), and grid and samples take the registry defaults, below the
// suite's 50 and 200.
type shape struct {
	Generator string // empty for the CSV upload
	Rows      int
}

// palette is the list workload's fixed mix of dataset specs; a run lists
// whole rounds of it, each round in a seeded order, so every seed sells
// the same mix.
var palette = []shape{
	{"Simulated1", 2500},
	{"Simulated2", 1200},
	{"YearMSD", 515},
	{"CASP", 64},
	{"CovType", 581},
	{"SUSY", 2500},
	{"", csvRows},
}

// CSV upload size: modest, a few tens of KB.
const (
	csvRows = 500
	csvCols = 8
)

// listSpec is one generated dataset listing plus the purchases made on it
// before it is delisted.
type listSpec struct {
	ID        string
	Generator string
	Rows      int
	Seed      int64
	CSV       []byte // non-nil for the CSV upload
	Shape     int    // index into palette
	Buys      []op   // Tenant is ignored: buys go to this dataset
}

// listRound returns round `round` of the list workload: the palette in a
// seeded order, each spec with fresh data seeds and listBuys purchases
// covering all three options.
func listRound(seed int64, round int) []listSpec {
	r := stream(seed, streamList+uint64(round+1)<<20)
	order := r.Perm(len(palette))
	out := make([]listSpec, 0, len(palette))
	for k, idx := range order {
		out = append(out, makeListSpec(r, seed, fmt.Sprintf("ds-%d-%d", round, k), idx))
	}
	return out
}

func makeListSpec(r *rand.Rand, seed int64, id string, shapeIdx int) listSpec {
	sh := palette[shapeIdx]
	s := listSpec{ID: id, Generator: sh.Generator, Rows: sh.Rows, Shape: shapeIdx, Seed: 1 + r.Int64N(1<<30)}
	if sh.Generator == "" {
		s.CSV = genCSV(seed, s.Seed, sh.Rows)
	}
	optPerm := r.Perm(len(options))
	for b := 0; b < listBuys; b++ {
		s.Buys = append(s.Buys, op{Kind: opBuy, Option: optPerm[b%len(optPerm)], Loss: r.Float64(), Knot: r.Float64()})
	}
	return s
}

// genCSV writes a regression relation: csvCols Gaussian features, a
// seeded hyperplane and Gaussian label noise, header f0..f7,y.
func genCSV(seed, dataSeed int64, rows int) []byte {
	r := stream(seed^dataSeed, streamCSV)
	w := make([]float64, csvCols)
	for i := range w {
		w[i] = r.NormFloat64()
	}
	var b bytes.Buffer
	for i := 0; i < csvCols; i++ {
		fmt.Fprintf(&b, "f%d,", i)
	}
	b.WriteString("y\n")
	x := make([]float64, csvCols)
	for n := 0; n < rows; n++ {
		y := 0.0
		for i := range x {
			x[i] = r.NormFloat64()
			y += w[i] * x[i]
			b.WriteString(strconv.FormatFloat(x[i], 'g', 8, 64))
			b.WriteByte(',')
		}
		y += 0.5 * r.NormFloat64()
		b.WriteString(strconv.FormatFloat(y, 'g', 8, 64))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// pick resolves a uniform fraction to an index in [0, n).
func pick(u float64, n int) int {
	i := int(math.Floor(u * float64(n)))
	if i >= n {
		i = n - 1
	}
	return i
}
