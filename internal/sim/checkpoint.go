package sim

import "sort"

// EventKey is the ordering key of one pending event. Two runs that executed
// the same history hold byte-identical key sets, which is what the snapshot
// verifier compares.
type EventKey struct {
	At  Time   `json:"at"`
	Seq uint64 `json:"seq"`
}

// EngineState is the engine's deterministic state export: the clock, the
// step and seq counters, every pending event's (at, seq) key — one-shots
// and recurring timers' next occurrences alike — normalized to (at, seq)
// ascending, and the slab pool's occupancy. Callbacks are Go closures and
// cannot be serialized — restoring an engine means deterministically
// replaying the run that produced it — so this export exists to *prove* a
// replay landed in the same state, not to resurrect one structurally.
type EngineState struct {
	Now        Time       `json:"now"`
	Steps      uint64     `json:"steps"`
	Seq        uint64     `json:"seq"`
	Events     []EventKey `json:"events"`
	FreeEvents int        `json:"free_events"`
	Procs      int        `json:"procs"`
}

// Checkpoint exports the engine's current state. It is a pure observer:
// calling it never changes event ordering, timers, or the pool.
func (e *Engine) Checkpoint() EngineState {
	st := EngineState{
		Now:        e.now,
		Steps:      e.stepped,
		Seq:        e.seq,
		FreeEvents: len(e.free),
		Procs:      len(e.procs),
	}
	st.Events = make([]EventKey, 0, len(e.events))
	for _, ev := range e.events {
		st.Events = append(st.Events, EventKey{At: ev.at, Seq: ev.seq})
	}
	sort.Slice(st.Events, func(i, j int) bool {
		if st.Events[i].At != st.Events[j].At {
			return st.Events[i].At < st.Events[j].At
		}
		return st.Events[i].Seq < st.Events[j].Seq
	})
	return st
}
