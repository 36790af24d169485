// Package daxfs models the metadata paths of the PMEM-optimized DAX
// filesystems the paper compares against in Fig. 6 (xfs-DAX, ext4-DAX,
// NOVA).
//
// The Fig. 6 experiment measures only the *metadata overhead* of a 4 KB file
// write — the persistent bookkeeping each filesystem performs per write,
// excluding the data transfer itself. Each model charges the corresponding
// PMEM operations on a simulated device:
//
//   - NOVA: append a 64-byte entry to the file's inode log and persist it,
//     then persist the log tail pointer ("NOVA must update the file's inode
//     as well as add the operation to the inode's log, both of which must
//     be made in PMEM", §5.2);
//   - xfs-DAX: write a ~256-byte transaction into the XFS log and persist
//     it, then persist the updated inode core;
//   - ext4-DAX: jbd2 journalling — a descriptor block, the full 4 KB
//     metadata block image into the journal, and a commit block, each
//     persisted in order.
//
// DStore's own Fig. 6 number comes from its real write pipeline (the
// breakdown's non-SSD components), not from a model here.
package daxfs

import (
	"time"

	"dstore/internal/baselines"
	"dstore/internal/latency"
	"dstore/internal/pmem"
)

// Kernel-path software costs charged per metadata update. DStore's §5.2
// argument is precisely that its userspace run-to-completion pipeline avoids
// the syscall + VFS + filesystem code path that DAX filesystems pay on every
// write; these constants model that path length (measured VFS overheads are
// 1-3 us).
const (
	novaSoftware = 2500 * time.Nanosecond
	xfsSoftware  = 3000 * time.Nanosecond
	ext4Software = 3500 * time.Nanosecond
)

// FS is a filesystem metadata-path model.
type FS interface {
	// Label names the filesystem in experiment output.
	Label() string
	// WriteMeta performs the persistent metadata work of one 4 KB file
	// write to the file identified by inode.
	WriteMeta(inode uint64)
}

// Device geometry: per-inode metadata areas.
const (
	inodeArea = 8192
	maxInodes = 1024
)

func newDevice(lat bool) *pmem.Device {
	return baselines.NewRig(baselines.RigConfig{DeviceLatency: lat}, inodeArea*maxInodes, nil).PM
}

func inodeOff(inode uint64) uint64 { return (inode % maxInodes) * inodeArea }

// NOVA models the log-structured NOVA filesystem.
type NOVA struct {
	dev  *pmem.Device
	tail [maxInodes]uint64
}

// NewNOVA creates the model; lat enables calibrated device latency.
func NewNOVA(lat bool) *NOVA { return &NOVA{dev: newDevice(lat)} }

// Label implements FS.
func (n *NOVA) Label() string { return "NOVA" }

// WriteMeta implements FS: inode-log entry append + tail update.
func (n *NOVA) WriteMeta(inode uint64) {
	latency.Spin(novaSoftware)
	base := inodeOff(inode)
	i := inode % maxInodes
	// 64-byte log entry at the current tail (a ring within the area).
	entryOff := base + 64 + (n.tail[i]%(inodeArea/64-2))*64
	var entry [64]byte
	entry[0] = 1
	n.dev.WriteAt(entryOff, entry[:])
	n.dev.Persist(entryOff, 64)
	// Persist the new tail pointer in the inode.
	n.tail[i]++
	n.dev.PutU64(base, n.tail[i])
	n.dev.Persist(base, 8)
}

// XFS models xfs-DAX's logged metadata updates.
type XFS struct {
	dev *pmem.Device
	seq uint64
}

// NewXFS creates the model.
func NewXFS(lat bool) *XFS { return &XFS{dev: newDevice(lat)} }

// Label implements FS.
func (x *XFS) Label() string { return "xfs-DAX" }

// WriteMeta implements FS: a ~256 B log transaction plus the inode core.
func (x *XFS) WriteMeta(inode uint64) {
	latency.Spin(xfsSoftware)
	base := inodeOff(inode)
	logOff := base + 512 + (x.seq%((inodeArea-1024)/256))*256
	rec := make([]byte, 256)
	rec[0] = 0xfe
	x.dev.WriteAt(logOff, rec)
	x.dev.Persist(logOff, 256)
	// Inode core (timestamps, size) in place.
	x.dev.PutU64(base, x.seq)
	x.dev.PutU64(base+64, x.seq)
	x.dev.Persist(base, 128)
	x.seq++
}

// EXT4 models ext4-DAX's jbd2 journalling.
type EXT4 struct {
	dev *pmem.Device
	seq uint64
}

// NewEXT4 creates the model.
func NewEXT4(lat bool) *EXT4 { return &EXT4{dev: newDevice(lat)} }

// Label implements FS.
func (e *EXT4) Label() string { return "ext4-DAX" }

// WriteMeta implements FS: descriptor block + full 4 KB metadata block image
// + commit block, persisted in order.
func (e *EXT4) WriteMeta(inode uint64) {
	latency.Spin(ext4Software)
	base := inodeOff(inode)
	// Descriptor (one line).
	e.dev.PutU64(base, e.seq|1<<63)
	e.dev.Persist(base, 64)
	// Journalled 4 KB metadata block image.
	blk := make([]byte, 4096)
	blk[0] = byte(e.seq)
	e.dev.WriteAt(base+128, blk)
	e.dev.Persist(base+128, 4096)
	// Commit block (one line).
	e.dev.PutU64(base+128+4096, e.seq|1<<62)
	e.dev.Persist(base+128+4096, 64)
	e.seq++
}

// All returns the three filesystem models.
func All(lat bool) []FS {
	return []FS{NewNOVA(lat), NewXFS(lat), NewEXT4(lat)}
}
