package sim

// Event is a one-shot condition processes can wait on. The zero value is not
// usable; create events with Env.NewEvent. Triggering an already-triggered
// event is a no-op, which makes completion signalling idempotent.
//
// Waiters are the blocked processes themselves, in arrival order. The first
// one is held inline — most events only ever have one — and a process's
// timeout entry and WaitAny siblings live on the Proc (it can be blocked in
// only one wait at a time), so registering on an event allocates nothing
// once rest has grown to the event's usual crowd.
type Event struct {
	env       *Env
	triggered bool
	first     *Proc
	rest      []*Proc
	// wakes counts processes this event's trigger scheduled that have not
	// resumed yet: each will read triggered when it does, so the event
	// cannot be reset under them (see Renew).
	wakes int
}

// NewEvent returns an untriggered event bound to the environment.
func (e *Env) NewEvent() *Event { return &Event{env: e} }

// Triggered reports whether the event has fired.
func (ev *Event) Triggered() bool { return ev.triggered }

// Trigger fires the event, scheduling every waiter to resume at the current
// virtual time. Waiters resume in the order they began waiting.
func (ev *Event) Trigger() {
	if ev.triggered {
		return
	}
	ev.triggered = true
	if ev.first == nil {
		return
	}
	ev.wake(ev.first)
	ev.first = nil
	for i, w := range ev.rest {
		ev.wake(w)
		ev.rest[i] = nil
	}
	ev.rest = ev.rest[:0]
}

// wake resumes one waiter: cancel its pending timeout, deregister it from
// its WaitAny siblings so a later trigger cannot resume it twice, and
// schedule it now.
func (ev *Event) wake(w *Proc) {
	if w.timer != 0 {
		ev.env.cancelEntry(w.timer)
		w.timer = 0
	}
	w.leaveGroup(ev)
	w.wokenBy = ev
	ev.wakes++
	ev.env.schedule(ev.env.now, w, nil)
}

// Renew returns an untriggered event to use in place of a triggered one
// whose owner wants to wait again: ev itself, reset, when every process its
// trigger woke has already resumed — nothing can still observe the old
// firing — and a fresh event otherwise. Only the event's owner may call it,
// and only for events it does not hand out for others to keep: a holder of
// the old pointer would see it untriggered again.
func (ev *Event) Renew() *Event {
	if ev.wakes > 0 {
		return ev.env.NewEvent()
	}
	ev.triggered = false
	return ev
}

// add registers p as the event's newest waiter.
func (ev *Event) add(p *Proc) {
	if ev.first == nil {
		ev.first = p
		return
	}
	ev.rest = append(ev.rest, p)
}

// remove deregisters p from the waiter list (used after a timeout fires so a
// later Trigger does not resume a process that already moved on).
func (ev *Event) remove(p *Proc) {
	if ev.first == p {
		ev.first = nil
		if len(ev.rest) > 0 {
			ev.first = ev.rest[0]
			ev.dropRest(0)
		}
		return
	}
	for i, w := range ev.rest {
		if w == p {
			ev.dropRest(i)
			return
		}
	}
}

func (ev *Event) dropRest(i int) {
	n := len(ev.rest) - 1
	copy(ev.rest[i:], ev.rest[i+1:])
	ev.rest[n] = nil
	ev.rest = ev.rest[:n]
}
