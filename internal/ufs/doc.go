// Package ufs implements a small BSD-FFS-like file system on the simulated
// disk, plus the single-threaded "Unix server" (the paper's Lites server)
// that serves it to applications.
//
// CRAS's central layout decision is that it does NOT define its own format:
// it shares the Unix file system's on-disk layout, tuned (via tunefs, here
// the MaxContig/RotDelay format options) to allocate file blocks as
// contiguously as possible. This package therefore provides both halves of
// that bargain:
//
//   - the format: a superblock, cylinder groups with block/inode bitmaps,
//     inodes with direct/indirect/double-indirect pointers, directories,
//     and a contiguity-preferring block allocator;
//   - the non-real-time access path: a buffer cache with sequential
//     read-ahead behind a single server thread, which is the baseline CRAS
//     is compared against in Figures 6 and 7 (and the source of its
//     priority inversions).
//
// The buffer cache keeps a block whose sectors hold no payload on the
// device (the simulated disk stores payloads sparsely) as a blank entry:
// its fill marks it instead of zero-filling the buffer, the buffer is
// cleared only when a caller is handed it, and File.ReadAt copies through
// Cache.ReadAt, which clears the caller's bytes for a blank block instead
// of copying zeros. Cache traffic and disk timing are as if the zeros had
// been stored, and the alias rule of Cache.Get is unchanged. A reader that
// never looks at its bytes (the background cats, cat > /dev/null) reads
// with File.Discard or Client.Discard: ReadAt's lookups, cache traffic,
// disk reads, read-ahead and CPU charge, with no byte cleared or copied.
// Read-ahead resolves its window on the hot leaf, as BlockMap does: while
// the cache shows a descent of the block tree would only count hits, the
// next block's pointer is read from the leaf's buffer in place and the
// hits are counted.
//
// CRAS itself bypasses this read path: it asks the server for a file's
// block map (a non-real-time operation, done at open time), coalesces it
// into extents, and reads raw sectors on the disk's real-time queue.
//
// Movies are laid out an extent at a time. File.Preallocate walks the file
// once: the block just placed is the next block's allocator goal, and an
// indirect block stays resolved across its run of slots, looked up again
// only when the buffer cache shows a lookup would do more than count a hit
// (after a cylinder-group load). It places every block where WriteAt's
// per-block walk would and leaves the cache, the disk and the simulated
// clock exactly as that walk does. mkfs (Format) writes each header and
// inode block with one BlockDevice.PokeSectors call, which a disk stores
// a slab at a time and a volume a stripe unit at a time. Mount refuses a
// device or superblock whose geometry it cannot serve with a
// *GeometryError. Metadata read after the mount is checked where it is
// first followed: a block pointer outside the file system, a directory
// entry naming an inode past the inode tables, or a size no file or
// directory can have is a *CorruptError (fsck reports each as a problem),
// never a read off the device. Unlink checks every block the removal
// would free before it removes the directory entry, and refuses a pointer
// past the device, to a free block or named twice with a *CorruptError,
// leaving the image as it was.
//
// Differences from real FFS, chosen to keep the package small without
// changing the behaviour the paper depends on: no fragments (a file's tail
// occupies a whole 8 KB block), no triple-indirect blocks, fixed 64-byte
// directory entries, and cylinder groups measured in blocks rather than
// exact cylinder boundaries.
//
// Concurrency model: a FileSystem instance must only be used from one
// simulation process at a time. The Unix server enforces this by
// construction — it is one thread, and that single-threadedness is exactly
// what the paper blames for the Unix file system's priority inversion.
package ufs
