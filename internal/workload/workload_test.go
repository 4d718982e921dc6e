package workload

import (
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/sim"
	"repro/internal/storage"
)

// fixture: array with sales+stock volumes and open DBs, run fn in a process.
func withShop(t *testing.T, cfg Config, fn func(p *sim.Proc, s *Shop)) *sim.Env {
	t.Helper()
	env := sim.NewEnv(1)
	a := storage.NewArray(env, "main", storage.Config{})
	a.CreateVolume("sales", 512)
	a.CreateVolume("stock", 512)
	sv, _ := a.Volume("sales")
	kv, _ := a.Volume("stock")
	env.Process("shop", func(p *sim.Proc) {
		sales, err := db.Open(p, "sales", sv, db.Config{})
		if err != nil {
			t.Error(err)
			return
		}
		stock, err := db.Open(p, "stock", kv, db.Config{})
		if err != nil {
			t.Error(err)
			return
		}
		fn(p, NewShop(env, sales, stock, cfg))
	})
	env.Run(0)
	return env
}

func TestPlaceOrderCommitsBothResources(t *testing.T) {
	withShop(t, Config{}, func(p *sim.Proc, s *Shop) {
		txid, err := s.PlaceOrder(p)
		if err != nil {
			t.Fatal(err)
		}
		if !s.sales.HasCommitted(txid) {
			t.Fatal("sales missing the order txn")
		}
		if !s.stock.HasCommitted(txid) {
			t.Fatal("stock missing the order txn")
		}
		if v, found, _ := s.sales.Get(p, txid); !found || len(v) != 16 {
			t.Fatalf("order row: found=%v len=%d", found, len(v))
		}
	})
}

func TestRunPlacesNOrders(t *testing.T) {
	withShop(t, Config{}, func(p *sim.Proc, s *Shop) {
		if err := s.Run(p, 50); err != nil {
			t.Fatal(err)
		}
		if s.Completed.Value() != 50 {
			t.Fatalf("completed = %d", s.Completed.Value())
		}
		if s.Latency.Count() != 50 {
			t.Fatalf("latency samples = %d", s.Latency.Count())
		}
		if got := len(s.SalesCommitOrder()); got != 50 {
			t.Fatalf("sales order len = %d", got)
		}
		if got := len(s.StockCommitOrder()); got != 50 {
			t.Fatalf("stock order len = %d", got)
		}
	})
}

func TestCommitOrdersAreSequentialTxnIDs(t *testing.T) {
	withShop(t, Config{}, func(p *sim.Proc, s *Shop) {
		s.Run(p, 10)
		for i, tx := range s.SalesCommitOrder() {
			if tx != uint64(i+1) {
				t.Fatalf("sales order %v", s.SalesCommitOrder())
			}
		}
		// Single client: stock order matches sales order.
		for i, tx := range s.StockCommitOrder() {
			if tx != uint64(i+1) {
				t.Fatalf("stock order %v", s.StockCommitOrder())
			}
		}
	})
}

func TestSalesAlwaysCommitsBeforeStock(t *testing.T) {
	// The invariant every consistency claim rests on: at any instant, the
	// set of stock commits is a subset of sales commits.
	withShop(t, Config{}, func(p *sim.Proc, s *Shop) {
		for i := 0; i < 20; i++ {
			s.PlaceOrder(p)
			for _, tx := range s.stock.CommittedTxns() {
				if !s.sales.HasCommitted(tx) {
					t.Fatalf("stock committed %d before sales", tx)
				}
			}
		}
	})
}

func TestThinkTimePacesOrders(t *testing.T) {
	env := withShop(t, Config{ThinkTime: 10 * time.Millisecond}, func(p *sim.Proc, s *Shop) {
		s.Run(p, 10)
	})
	if env.Now() < 100*time.Millisecond {
		t.Fatalf("10 paced orders finished in %v, want >= 100ms", env.Now())
	}
}

func TestZipfSkewConcentratesDemand(t *testing.T) {
	counts := map[uint64]int{}
	withShop(t, Config{ZipfS: 1.5}, func(p *sim.Proc, s *Shop) {
		for i := 0; i < 300; i++ {
			counts[s.pickItem()]++
		}
	})
	if counts[1] == 0 {
		t.Fatal("zipf never picked the hottest item")
	}
	hot := counts[1]
	var total int
	for _, c := range counts {
		total += c
	}
	if float64(hot)/float64(total) < 0.2 {
		t.Fatalf("hottest item got %d/%d picks; zipf not skewed", hot, total)
	}
}

func TestUniformWhenZipfDisabled(t *testing.T) {
	seen := map[uint64]bool{}
	withShop(t, Config{ZipfS: -1}, func(p *sim.Proc, s *Shop) {
		for i := 0; i < 1000; i++ {
			k := s.pickItem()
			if k < 1 || k > items {
				t.Fatalf("item %d out of range", k)
			}
			seen[k] = true
		}
	})
	if len(seen) < items*9/10 {
		t.Fatalf("uniform picker covered only %d/%d items", len(seen), items)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (int64, time.Duration) {
		env := sim.NewEnv(7)
		a := storage.NewArray(env, "m", storage.Config{})
		a.CreateVolume("sales", 512)
		a.CreateVolume("stock", 512)
		sv, _ := a.Volume("sales")
		kv, _ := a.Volume("stock")
		var completed int64
		env.Process("shop", func(p *sim.Proc) {
			sales, _ := db.Open(p, "sales", sv, db.Config{})
			stock, _ := db.Open(p, "stock", kv, db.Config{})
			s := NewShop(env, sales, stock, Config{Seed: 7})
			s.Run(p, 40)
			completed = s.Completed.Value()
		})
		end := env.Run(0)
		return completed, end
	}
	c1, e1 := run()
	c2, e2 := run()
	if c1 != c2 || e1 != e2 {
		t.Fatalf("runs diverged: (%d,%v) vs (%d,%v)", c1, e1, c2, e2)
	}
}

func TestCheckOrderReads(t *testing.T) {
	withShop(t, Config{}, func(p *sim.Proc, s *Shop) {
		s.Run(p, 10)
		for i := 0; i < 20; i++ {
			if err := s.CheckOrder(p); err != nil {
				t.Fatal(err)
			}
		}
		if s.Reads.Value() != 20 || s.ReadLatency.Count() != 20 {
			t.Fatalf("reads=%d samples=%d", s.Reads.Value(), s.ReadLatency.Count())
		}
	})
}

func TestReadMixStillPlacesNOrders(t *testing.T) {
	withShop(t, Config{ReadFraction: 0.5}, func(p *sim.Proc, s *Shop) {
		if err := s.Run(p, 30); err != nil {
			t.Fatal(err)
		}
		if s.Completed.Value() != 30 {
			t.Fatalf("completed = %d, want exactly 30 despite read mix", s.Completed.Value())
		}
		if s.Reads.Value() == 0 {
			t.Fatal("read mix produced no reads")
		}
	})
}

func TestReadsDoNotJournal(t *testing.T) {
	// Reads must not generate replication traffic — part of why analytics
	// and status checks are free under ADC.
	env := sim.NewEnv(1)
	a := storage.NewArray(env, "m", storage.Config{})
	a.CreateVolume("sales", 512)
	a.CreateVolume("stock", 512)
	j, _ := a.CreateConsistencyGroup("cg", []storage.VolumeID{"sales", "stock"}, 1)
	sv, _ := a.Volume("sales")
	kv, _ := a.Volume("stock")
	env.Process("t", func(p *sim.Proc) {
		sales, _ := db.Open(p, "sales", sv, db.Config{})
		stock, _ := db.Open(p, "stock", kv, db.Config{})
		s := NewShop(env, sales, stock, Config{})
		s.Run(p, 5)
		before := j.Shards()[0].Appended()
		for i := 0; i < 10; i++ {
			if err := s.CheckOrder(p); err != nil {
				t.Error(err)
				return
			}
		}
		if n := j.Shards()[0].Appended(); n != before {
			t.Errorf("reads appended %d journal records", n-before)
		}
	})
	env.Run(0)
}
