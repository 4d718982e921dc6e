package consistency

import "testing"

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
