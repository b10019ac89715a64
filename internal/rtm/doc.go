// Package rtm models the Real-Time Mach kernel facilities that CRAS depends
// on: preemptive fixed-priority thread scheduling, round-robin timesharing,
// ports for inter-thread communication, mutexes with optional priority
// inheritance, and periodic threads with deadline notification.
//
// The model runs on the deterministic virtual clock of internal/sim. A
// single simulated CPU is shared by all threads of a Kernel. CPU contention
// exists only inside Thread.Compute: code between Compute calls executes in
// zero virtual time, so every cost an experiment cares about must be modeled
// as an explicit Compute (or as device time in internal/disk). This is the
// usual level of abstraction for OS scheduling studies — what matters for
// the paper's claims (Figs 6, 7, 10) is who gets the CPU and the disk when,
// not instruction-accurate timing.
//
// Scheduling model. Each thread has a priority (larger is more urgent) and
// a quantum. A zero quantum gives classic fixed-priority preemptive
// scheduling: the thread runs until its burst completes or a higher-priority
// thread wakes. A positive quantum gives round-robin behaviour at that
// priority level: the thread is requeued at the tail of its level when the
// quantum expires. The paper's Figure 10 compares exactly these two
// policies. A preempted thread returns to the head of its level, a
// quantum-expired thread to the tail, matching conventional kernel behaviour.
//
// Interrupt context. Device completion callbacks run as plain sim events
// and may call Port.Send to wake a handler thread; this corresponds to the
// paper's device-driver interrupt notifying CRAS's I/O-done manager thread.
//
// Two kinds of port. A Port carries one-way messages of any type: device
// completions, deadline and health events, dead-name notifications. An
// RPC[Req, Resp] carries typed calls, each blocking its caller until the
// server replies: the Unix server's and CRAS's request manager's ports.
//
// Two ways to run a thread. NewThread runs its body as a sim.Proc
// coroutine, which may block anywhere. NewHandler runs the fixed loop
// "receive from one port, Compute a per-message cost, call back" without a
// coroutine, as events on the thread's own wake timer; it schedules exactly
// as the coroutine running that loop would, and suits a thread that waits
// on nothing but its port and the CPU.
package rtm
