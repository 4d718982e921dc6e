package consistency

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// fakeSet is a CommitSet backed by a plain set.
type fakeSet map[uint64]bool

func (f fakeSet) HasCommitted(tx uint64) bool { return f[tx] }
func (f fakeSet) CommittedTxns() []uint64 {
	var out []uint64
	// Deterministic order for assertions.
	for tx := uint64(0); tx <= 1000; tx++ {
		if f[tx] {
			out = append(out, tx)
		}
	}
	return out
}

func set(txs ...uint64) fakeSet {
	f := fakeSet{}
	for _, tx := range txs {
		f[tx] = true
	}
	return f
}

func seq(txs ...uint64) []uint64 { return txs }

func TestVerifyConsistentPair(t *testing.T) {
	// Backup cut after order 3's sales commit but before its stock commit:
	// dangling sales is fine; nothing collapsed.
	rep := Verify(
		set(1, 2, 3), set(1, 2),
		seq(1, 2, 3), seq(1, 2),
	)
	if rep.Collapsed() {
		t.Fatalf("consistent pair reported collapsed: %v", rep)
	}
	if len(rep.DanglingSales) != 1 || rep.DanglingSales[0] != 3 {
		t.Fatalf("dangling = %v", rep.DanglingSales)
	}
	if !rep.OrderingOK() {
		t.Fatalf("ordering flagged: %v", rep)
	}
	if rep.SalesTxns != 3 || rep.StockTxns != 2 {
		t.Fatalf("counts: %v", rep)
	}
}

func TestVerifyDetectsCollapse(t *testing.T) {
	// Stock has order 3 but sales lost it: the paper's collapse scenario.
	rep := Verify(
		set(1, 2), set(1, 2, 3),
		seq(1, 2, 3), seq(1, 2, 3),
	)
	if !rep.Collapsed() {
		t.Fatal("collapse not detected")
	}
	if len(rep.OrphanStock) != 1 || rep.OrphanStock[0] != 3 {
		t.Fatalf("orphans = %v", rep.OrphanStock)
	}
}

func TestVerifyDetectsPrefixViolation(t *testing.T) {
	// Sales recovered {1,3} out of commit order 1,2,3: a hole — per-volume
	// ordering was violated (cannot happen with journal replication, but
	// the verifier must catch it if it ever does).
	rep := Verify(
		set(1, 3), set(1),
		seq(1, 2, 3), seq(1),
	)
	if rep.SalesPrefixOK {
		t.Fatal("hole in sales prefix not detected")
	}
	if !rep.StockPrefixOK {
		t.Fatal("intact stock prefix flagged")
	}
}

func TestVerifyLossCounts(t *testing.T) {
	rep := Verify(
		set(1, 2), set(1),
		seq(1, 2, 3, 4), seq(1, 2, 3),
	)
	if rep.LostSalesTxns != 2 || rep.LostStockTxns != 2 {
		t.Fatalf("lost = %d/%d, want 2/2", rep.LostSalesTxns, rep.LostStockTxns)
	}
}

func TestVerifyEmptyBackup(t *testing.T) {
	rep := Verify(set(), set(), seq(1, 2), seq(1, 2))
	if rep.Collapsed() || !rep.OrderingOK() {
		t.Fatalf("empty backup should be consistent: %v", rep)
	}
	if rep.LostSalesTxns != 2 {
		t.Fatalf("lost = %d", rep.LostSalesTxns)
	}
}

func TestVerifyPerfectBackup(t *testing.T) {
	rep := Verify(set(1, 2, 3), set(1, 2, 3), seq(1, 2, 3), seq(1, 2, 3))
	if rep.Collapsed() || !rep.OrderingOK() || rep.LostSalesTxns != 0 || rep.LostStockTxns != 0 {
		t.Fatalf("perfect backup misjudged: %v", rep)
	}
}

// listing is a CommitSet that lists its IDs as a database does: ascending and
// distinct, a copy per call.
type listing map[uint64]bool

func (l listing) CommittedTxns() []uint64 { return slices.Sorted(maps.Keys(l)) }

// bruteForce is Verify by map lookups, one per question: what each image holds
// that the other lacks, in ascending order, and for each image the longest
// prefix of its order it holds and whether it holds anything past that.
func bruteForce(sales, stock listing, salesOrder, stockOrder []uint64) Report {
	rep := Report{SalesTxns: len(sales), StockTxns: len(stock)}
	for _, tx := range stock.CommittedTxns() {
		if !sales[tx] {
			rep.OrphanStock = append(rep.OrphanStock, tx)
		}
	}
	for _, tx := range sales.CommittedTxns() {
		if !stock[tx] {
			rep.DanglingSales = append(rep.DanglingSales, tx)
		}
	}
	prefix := func(set listing, order []uint64) (bool, int) {
		n := 0
		for n < len(order) && set[order[n]] {
			n++
		}
		return !slices.ContainsFunc(order[n:], func(tx uint64) bool { return set[tx] }), len(order) - n
	}
	rep.SalesPrefixOK, rep.LostSalesTxns = prefix(sales, salesOrder)
	rep.StockPrefixOK, rep.LostStockTxns = prefix(stock, stockOrder)
	return rep
}

// TestVerifyMatchesBruteForce holds Verify's merge and ordered lookups to
// bruteForce on random images: empty sets, sets that are a prefix of their
// order and sets that are not, orders that are shuffled or locally swapped
// (never ascending throughout), IDs past every order and images that share
// nothing.
func TestVerifyMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	order := func(n int) []uint64 {
		o := make([]uint64, n)
		for i := range o {
			o[i] = uint64(1 + 2*i + rng.Intn(2)) // ascending, with gaps
		}
		switch rng.Intn(3) {
		case 0:
			rng.Shuffle(len(o), func(i, j int) { o[i], o[j] = o[j], o[i] })
		case 1:
			for i := 0; i+1 < len(o); i += 1 + rng.Intn(3) {
				o[i], o[i+1] = o[i+1], o[i]
			}
		}
		return o
	}
	image := func(order []uint64) listing {
		l := listing{}
		switch rng.Intn(4) {
		case 0: // empty
		case 1: // a prefix of the order
			for _, tx := range order[:rng.Intn(len(order)+1)] {
				l[tx] = true
			}
		default: // any subset, and IDs no order holds
			for _, tx := range order {
				if rng.Intn(3) > 0 {
					l[tx] = true
				}
			}
			for range rng.Intn(4) {
				l[uint64(rng.Intn(3*len(order)+3))] = true
			}
		}
		return l
	}
	shapes := map[string]int{}
	for i := range 2000 {
		salesOrder := order(rng.Intn(40))
		stockOrder := salesOrder
		if rng.Intn(2) == 0 {
			stockOrder = order(rng.Intn(40))
		}
		sales, stock := image(salesOrder), image(stockOrder)
		got, want := Verify(sales, stock, salesOrder, stockOrder), bruteForce(sales, stock, salesOrder, stockOrder)
		if !slices.Equal(got.OrphanStock, want.OrphanStock) || !slices.Equal(got.DanglingSales, want.DanglingSales) ||
			got.SalesPrefixOK != want.SalesPrefixOK || got.StockPrefixOK != want.StockPrefixOK ||
			got.LostSalesTxns != want.LostSalesTxns || got.LostStockTxns != want.LostStockTxns ||
			got.SalesTxns != want.SalesTxns || got.StockTxns != want.StockTxns {
			t.Fatalf("case %d: sales %v, stock %v, orders %v and %v:\nVerify %+v\nbrute  %+v",
				i, sales.CommittedTxns(), stock.CommittedTxns(), salesOrder, stockOrder, got, want)
		}
		shapes[fmt.Sprint("collapsed ", want.Collapsed())]++
		shapes[fmt.Sprint("sales prefix ", want.SalesPrefixOK)]++
		shapes[fmt.Sprint("empty ", len(sales) == 0)]++
	}
	for _, s := range []string{"collapsed true", "collapsed false", "sales prefix true", "sales prefix false", "empty true"} {
		if shapes[s] == 0 {
			t.Fatalf("no case had %q: %v", s, shapes)
		}
	}
}
