package db

import "repro/internal/sim"

// View is a read-only database opened from any BlockReader: the reader Open
// also runs, and nothing that writes. Opening it replays the WAL's valid
// prefix up to the redo: every read the replay charges, the committed set and
// the torn-tail flag. The redo, which takes no simulated time, runs at the
// view's first Get or Scan, so a view only asked for its committed set never
// copies a page; a redo that fails fails that read and every later one. The
// redone pages stay in memory, so the underlying image (typically a snapshot)
// is untouched.
type View struct {
	reader
	replayed redoLog // what the replay left the redo: the reader's pending
}

// OpenView attaches read-only to a formatted volume image and replays its WAL
// valid prefix up to the redo.
func OpenView(p *sim.Proc, name string, vol BlockReader, cfg Config) (*View, error) {
	v := &View{}
	if err := v.open(p, name, vol, cfg); err != nil {
		return nil, err
	}
	rl, err := v.replay(p)
	if err != nil {
		return nil, err
	}
	v.replayed, v.pending = rl, &v.replayed
	return v, nil
}
