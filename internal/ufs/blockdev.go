package ufs

import (
	"repro/internal/disk"
	"repro/internal/sim"
)

// BlockDevice is the disk surface the file system consumes: geometry for
// layout, asynchronous submission for cached reads, synchronous write-back,
// and the offline peek/poke pair. mkfs uses both, a whole block per call;
// the buffer cache submits timing-only reads and, at their completion,
// fills its blocks in place with FillSectors, which also tells it which
// blocks hold no payload. Both a bare *disk.Disk and a striped
// *disk.Volume satisfy it, so a CMFS image formats and mounts identically
// on one spindle or an array.
type BlockDevice interface {
	Geometry() disk.Geometry
	Submit(r *disk.Request)
	WriteSync(p *sim.Proc, lba int64, count int, data []byte, realTime bool)
	PeekSectors(lba int64, dst []byte)
	FillSectors(lba int64, count int, dst []byte) (blank bool)
	PokeSectors(lba int64, data []byte)
}

var (
	_ BlockDevice = (*disk.Disk)(nil)
	_ BlockDevice = (*disk.Volume)(nil)
)
