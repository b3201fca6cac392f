package sim

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzEventQueue interprets the fuzz payload as a scheduling program — a mix
// of absolute and relative one-shots, deliberate same-instant ties, periodic
// timers and cancellations, with events that schedule further events from
// inside their own callbacks — and asserts the engine's one ordering promise
// under all of it: executed (at, seq) keys are strictly increasing, i.e.
// time never goes backwards and same-instant events fire in schedule order.
// The step hook observes every pop, so the check covers both the binary heap
// and the periodic wheel and their interleaving. After every Step the cached
// wheel minimum must equal a fresh scan, including after ticks that call
// Every, stop another timer, or stop themselves.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x10\x00\x04\x10\x00\x01\x08\x00\x02\x40\x00\x03\x01\x00"))
	f.Add([]byte("\x02\x01\x00\x02\x01\x00\x04\x00\x00\x04\x00\x00\x03\x00\x00"))
	// A one-shot adds a ticker due before the current wheel minimum.
	f.Add([]byte("\x02\xe8\x03\x01\x0a\x00\x05\x00\x00\x05\x00\x00\x02\x00\x00"))
	// A one-shot stops the wheel minimum; swap-removal moves a later ticker
	// into its slot.
	f.Add([]byte("\x02\xe8\x03\x02\xd0\x07\x02\xb8\x0b\x01\x0a\x00\x03\x00\x00"))
	// Tickers whose ticks add tickers, stop a sibling, and stop themselves.
	f.Add([]byte("\x02\x00\x00\x02\x10\x00\x02\x20\x00\x02\x05\x00\x03\x01\x00\x05\x00\x00\x02\x30\x00\x05\x00\x00\x03\x02\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		eng := New()
		var lastAt Time
		var lastSeq uint64
		seen := false
		eng.SetStepHook(func(at Time, seq uint64) {
			if seen && (at < lastAt || (at == lastAt && seq <= lastSeq)) {
				t.Fatalf("pop order regressed: (%v, %d) fired after (%v, %d)", at, seq, lastAt, lastSeq)
			}
			lastAt, lastSeq, seen = at, seq, true
		})

		var timers []Timer
		pos := 0
		periodics := 0
		self := -1 // index in timers of the ticker whose tick is running
		var interp func()
		interp = func() {
			if pos+3 > len(data) {
				return
			}
			op := data[pos] % 6
			d := Time(binary.LittleEndian.Uint16(data[pos+1 : pos+3]))
			pos += 3
			switch op {
			case 0:
				timers = append(timers, eng.Schedule(eng.Now()+d, interp))
			case 1:
				timers = append(timers, eng.After(d, interp))
			case 2:
				// Bound the period from below so hostile inputs cannot ask
				// for millions of ticks inside the fuzz horizon.
				if periodics < 8 {
					periodics++
					idx := len(timers)
					timers = append(timers, eng.Every(64+d%4096, func() {
						self = idx
						interp()
						self = -1
					}))
				}
			case 3:
				if len(timers) > 0 {
					timers[int(d)%len(timers)].Stop()
				}
			case 4:
				// Same-instant tie: both must fire, in schedule order.
				at := eng.Now() + d
				timers = append(timers, eng.Schedule(at, interp), eng.Schedule(at, interp))
			case 5:
				// A tick stops its own timer.
				if self >= 0 {
					timers[self].Stop()
				}
			}
		}
		// run steps until the next event lies past horizon, checking the
		// cached wheel minimum against a fresh scan after every Step.
		run := func(horizon Time) {
			for {
				if at, ok := eng.peek(); !ok || at > horizon {
					return
				}
				eng.Step()
				if got, want := eng.wheelMin(), eng.scanWheelMin(); got != want {
					t.Fatalf("cached wheel minimum %d, scan finds %d", got, want)
				}
			}
		}
		for i := 0; i < 4 && pos < len(data); i++ {
			interp()
		}
		run(1 << 17)
		for i := range timers {
			timers[i].Stop()
		}
		// Drain what the program scheduled past the horizon; with every
		// periodic stopped this terminates.
		run(math.MaxInt64)
		if eng.Pending() != 0 {
			t.Fatalf("queue not drained: %d events pending after Run", eng.Pending())
		}
	})
}
