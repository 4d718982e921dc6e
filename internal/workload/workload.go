// Package workload generates the e-commerce business process the paper's
// use case is built around (§II): each order is one business transaction
// touching two resources — an order row committed to the sales database and
// a stock decrement committed to the stock database. The application
// commits sales first and issues the stock commit only after the sales
// commit is acknowledged, so the storage-level ack order always contains
// "sales(tx) before stock(tx)". That ordering is exactly what a consistency
// group preserves at the backup site and what independent per-volume
// replication can invert — the collapse experiment E6 measures it.
package workload

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/db"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// The order shape: the stock catalogue's size, and how many stock lines each
// order touches.
const (
	items         = 100
	itemsPerOrder = 2
)

// Config tunes the generator.
type Config struct {
	// ZipfS skews item popularity; 0 disables skew (uniform). Values > 1
	// concentrate demand on few items (default 1.2).
	ZipfS float64
	// ThinkTime is the client's pause between orders (default 0: closed
	// loop, back to back).
	ThinkTime time.Duration
	// ReadFraction is the share of operations that are customer reads
	// (order status + stock check) instead of orders, in [0,1). Reads
	// never touch the journal, so they dilute the replication load the
	// way real mixed traffic does. Default 0.
	ReadFraction float64
	// Seed seeds the shop's own generator, which picks items, read targets
	// and the read/write mix. It never draws from the environment's RNG: the
	// stream is exactly math/rand.NewSource(Seed+0x5eed)'s.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.ZipfS == 0 {
		c.ZipfS = 1.2
	}
	return c
}

// Shop drives orders against a sales DB and a stock DB.
type Shop struct {
	env   *sim.Env
	sales *db.DB
	stock *db.DB
	cfg   Config
	rng   *rand.Rand
	zipf  *rand.Zipf

	nextTx uint64
	// Commit sequences in ack order, per database — the ground truth the
	// consistency verifier compares recovered images against.
	salesOrder []uint64
	stockOrder []uint64

	Latency     *metrics.Histogram // per-order end-to-end commit latency
	ReadLatency *metrics.Histogram // per-read latency
	Completed   metrics.Counter
	Reads       metrics.Counter
	Failed      metrics.Counter
}

// NewShop wires the generator to its two databases. Its draws are
// math/rand.New(math/rand.NewSource(cfg.Seed+0x5eed))'s, draw for draw, but
// the 607-word register behind them is built only if the shop makes more than
// 273 draws (lazySource).
func NewShop(env *sim.Env, sales, stock *db.DB, cfg Config) *Shop {
	cfg = cfg.withDefaults()
	rng := rand.New(newLazySource(cfg.Seed + 0x5eed))
	s := &Shop{
		env:         env,
		sales:       sales,
		stock:       stock,
		cfg:         cfg,
		rng:         rng,
		Latency:     metrics.NewHistogram(),
		ReadLatency: metrics.NewHistogram(),
		nextTx:      1,
	}
	if cfg.ZipfS > 1 {
		s.zipf = rand.NewZipf(rng, cfg.ZipfS, 1, items-1)
	}
	return s
}

// pickItem returns a stock item key in [1, items].
func (s *Shop) pickItem() uint64 {
	if s.zipf != nil {
		return s.zipf.Uint64() + 1
	}
	return uint64(s.rng.Intn(items)) + 1
}

// PlaceOrder runs one business transaction: commit the order into sales,
// then commit the stock decrements. It returns the business transaction ID.
func (s *Shop) PlaceOrder(p *sim.Proc) (uint64, error) {
	txid := s.nextTx
	s.nextTx++
	start := p.Now()

	// Resource 1: the sales database records the order.
	st := s.sales.BeginWithID(txid)
	val := make([]byte, 16)
	binary.LittleEndian.PutUint64(val[0:8], txid)
	binary.LittleEndian.PutUint64(val[8:16], uint64(start))
	if err := st.Put(orderKey(txid), val); err != nil {
		s.Failed.Inc()
		return 0, fmt.Errorf("workload: order %d sales put: %w", txid, err)
	}
	if err := st.Commit(p); err != nil {
		s.Failed.Inc()
		return 0, fmt.Errorf("workload: order %d sales commit: %w", txid, err)
	}
	s.salesOrder = append(s.salesOrder, txid)

	// Resource 2: the stock database, only after the sales ack (app order).
	kt := s.stock.BeginWithID(txid)
	for i := 0; i < itemsPerOrder; i++ {
		item := s.pickItem()
		qty := make([]byte, 16)
		binary.LittleEndian.PutUint64(qty[0:8], txid)
		binary.LittleEndian.PutUint64(qty[8:16], item)
		if err := kt.Put(item, qty); err != nil {
			s.Failed.Inc()
			return 0, fmt.Errorf("workload: order %d stock put: %w", txid, err)
		}
	}
	if err := kt.Commit(p); err != nil {
		s.Failed.Inc()
		return 0, fmt.Errorf("workload: order %d stock commit: %w", txid, err)
	}
	s.stockOrder = append(s.stockOrder, txid)

	s.Latency.Record(p.Now() - start)
	s.Completed.Inc()
	return txid, nil
}

// orderKey spreads order rows over the sales DB's pages.
func orderKey(txid uint64) uint64 { return txid }

// CheckOrder runs one customer read: look up an existing order and the
// stock level of one item. Reads pay media time but never journal.
func (s *Shop) CheckOrder(p *sim.Proc) error {
	start := p.Now()
	if s.nextTx > 1 {
		orderID := uint64(s.rng.Int63n(int64(s.nextTx-1))) + 1
		if _, _, err := s.sales.Get(p, orderKey(orderID)); err != nil {
			s.Failed.Inc()
			return fmt.Errorf("workload: order lookup: %w", err)
		}
	}
	if _, _, err := s.stock.Get(p, s.pickItem()); err != nil {
		s.Failed.Inc()
		return fmt.Errorf("workload: stock lookup: %w", err)
	}
	s.ReadLatency.Record(p.Now() - start)
	s.Reads.Inc()
	return nil
}

// step performs one operation according to the read/write mix.
func (s *Shop) step(p *sim.Proc) error {
	if s.cfg.ReadFraction > 0 && s.rng.Float64() < s.cfg.ReadFraction {
		return s.CheckOrder(p)
	}
	_, err := s.PlaceOrder(p)
	return err
}

// Run places n orders back to back (with ThinkTime pauses and the
// configured read mix interleaved). It stops early and returns the error
// if an operation fails. The commit ledgers and the latency histogram are
// grown once for the n orders, not doubled from empty as they fill.
func (s *Shop) Run(p *sim.Proc, n int) error {
	s.salesOrder, s.stockOrder = grow(s.salesOrder, n), grow(s.stockOrder, n)
	s.Latency.Grow(n)
	placed := int64(0)
	for placed < int64(n) {
		before := s.Completed.Value()
		if err := s.step(p); err != nil {
			return err
		}
		placed += s.Completed.Value() - before
		if s.cfg.ThinkTime > 0 {
			p.Sleep(s.cfg.ThinkTime)
		}
	}
	return nil
}

// grow returns ids with room for n more, as Histogram.Grow makes room.
func grow(ids []uint64, n int) []uint64 {
	if cap(ids)-len(ids) >= n {
		return ids
	}
	return append(make([]uint64, 0, len(ids)+n), ids...)
}

// RunUntil performs operations until the virtual deadline passes.
func (s *Shop) RunUntil(p *sim.Proc, deadline time.Duration) error {
	for p.Now() < deadline {
		if err := s.step(p); err != nil {
			return err
		}
		if s.cfg.ThinkTime > 0 {
			p.Sleep(s.cfg.ThinkTime)
		}
	}
	return nil
}

// SalesCommitOrder returns the business transaction IDs in sales-commit ack
// order (a copy).
func (s *Shop) SalesCommitOrder() []uint64 {
	out := make([]uint64, len(s.salesOrder))
	copy(out, s.salesOrder)
	return out
}

// StockCommitOrder returns the business transaction IDs in stock-commit ack
// order (a copy).
func (s *Shop) StockCommitOrder() []uint64 {
	out := make([]uint64, len(s.stockOrder))
	copy(out, s.stockOrder)
	return out
}
