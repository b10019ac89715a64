// Package sim provides a deterministic discrete-event simulation engine.
//
// All of the substrates in this repository — the Real-Time Mach scheduling
// model (internal/rtm), the disk model (internal/disk), the file system
// (internal/ufs) and the CRAS server itself (internal/core) — run on top of
// this engine in virtual time. Virtual time has nanosecond resolution and
// advances only when the event at the head of the calendar fires, so a run
// is bit-reproducible regardless of wall-clock scheduling, GC pauses, or
// host load. That property is what lets a Go program make meaningful
// statements about rate guarantees: the paper's Real-Time Mach kernel
// provided predictable scheduling in real time; we provide it in virtual
// time.
//
// Two programming models are offered:
//
//   - Plain events: Engine.At / Engine.After schedule a callback at an
//     absolute or relative virtual time. Callbacks run on the engine
//     goroutine, one at a time. An owner with at most one pending event
//     re-arms its own Timer with Engine.Schedule instead of allocating
//     one per event.
//
//   - Processes: Engine.Spawn starts a coroutine (iter.Pull) with sequential
//     blocking semantics (Sleep, Block/Unblock, Waiter.Wait). Exactly one
//     process or event callback executes at any moment; each switch is a
//     direct coroutine handoff between the engine and the process, so
//     processes interleave deterministically in (time, seq) order just like
//     events.
//
// Randomness is only available through named RNG streams (Engine.RNG) whose
// seeds derive from the engine seed and the stream name, keeping stochastic
// workloads reproducible.
package sim
