package replication

import "slices"

// Replicator is the engine type the benchmark still names.
type Replicator = *Group

// Registry holds a site's running engines by name. It belongs to the site,
// not to the controller that starts them, so a controller started fresh
// finds every engine its predecessor ran.
type Registry map[string]*Group

// Names returns the registered names in order.
func (r Registry) Names() []string {
	names := make([]string, 0, len(r))
	for name := range r {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// Sorted returns every engine in name order: site-wide walks (Failback,
// Stop) visit engines one after another, so a map-order walk would make
// their simulated timing vary between runs of one seed.
func (r Registry) Sorted() []*Group {
	out := make([]*Group, 0, len(r))
	for _, name := range r.Names() {
		out = append(out, r[name])
	}
	return out
}
