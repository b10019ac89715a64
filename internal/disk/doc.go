// Package disk models the SCSI disk used in the paper's evaluation (a
// Seagate ST32550N: 2 GB, 7200 rpm, ~6.5 MB/s media rate) at the level of
// detail the experiments depend on: cylinder geometry, a non-linear seek
// curve, deterministic rotational position, media-rate transfer, and a
// fixed per-command overhead.
//
// The service time of a request is
//
//	Tcmd + Tseek(|cyl - arm|) + Trot_wait + Ttransfer
//
// where Trot_wait is the deterministic rotational delay from the angular
// position of the platter when the seek completes to the first requested
// sector, and Ttransfer moves data at the media rate (one track per
// revolution). Track- and cylinder-switch penalties inside a transfer are
// not modeled; the sustained sequential rate therefore equals the media
// rate, which is what the paper's D parameter measures.
//
// The controller serves one request at a time from two queues, reproducing
// the paper's modification to the Real-Time Mach disk driver: a real-time
// queue and a normal queue, each ordered by C-SCAN, with the real-time
// queue always served first when non-empty. A request already in service is
// never aborted — this is exactly the "other activity" overhead O_other that
// the admission test charges for.
//
// Sector payloads are stored sparsely: written sectors keep their bytes,
// unwritten sectors read as zeros. Media files can therefore be laid out
// (allocating all metadata for real) without storing gigabytes of pixel
// data.
//
// Request.Data is the payload in both directions; nil means timing only. A
// write stores Data, and a nil Data is a sparse write. A read copies the
// sectors into Data, zero-filling unwritten ones, and passes that same
// buffer to Done; a read with nil Data costs its full service time but
// moves no bytes, and Done gets nil. This is the raw read interface of the
// paper, where CRAS owns its buffers: its stream reads are timing-only, so
// the per-request path allocates nothing of its own. Callers that want the
// bytes supply the buffer (ReadSync allocates the one it returns).
//
// The seek curve is deliberately non-linear (a square-root region for short
// seeks, linear beyond), after Ruemmler & Wilkes, so that the linear
// approximation used by the paper's admission test (Appendix C) is a genuine
// approximation of a measured curve, as it was for the authors.
package disk
