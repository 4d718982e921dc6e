package db

import "repro/internal/sim"

// View is a read-only database opened from any BlockReader: the reader Open
// also runs, and nothing that writes. The replay's redone pages stay in
// memory, so the underlying image (typically a snapshot) is untouched.
type View struct {
	reader
}

// OpenView attaches read-only to a formatted volume image and replays its
// WAL valid prefix in memory.
func OpenView(p *sim.Proc, name string, vol BlockReader, cfg Config) (*View, error) {
	v := &View{}
	if err := v.open(p, name, vol, cfg); err != nil {
		return nil, err
	}
	if err := v.replay(p); err != nil {
		return nil, err
	}
	return v, nil
}
