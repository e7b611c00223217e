package gpu

import (
	"encoding/binary"
	"fmt"

	"cudaadvisor/internal/ir"
)

// DeviceMemory is the simulated GPU global memory: a flat byte array with
// a bump allocator, the target of cudaMalloc in the host runtime.
// Address 0 is reserved so that null pointers fault.
//
// The capacity is a limit, not a footprint: buf backs only [0, len(buf)),
// the high-water mark of everything allocated, copied in, or stored to.
// In-capacity bytes above the mark have never been written and read as
// zero, exactly what an eagerly zeroed array would hold. The hot path
// stays one bounds test on one flat slice.
type DeviceMemory struct {
	buf   []byte
	limit uint64
	next  uint64
}

// NewDeviceMemory returns a device memory of the given capacity in bytes.
func NewDeviceMemory(capacity int64) *DeviceMemory {
	if capacity < 0 {
		capacity = 0
	}
	return &DeviceMemory{limit: uint64(capacity), next: 256}
}

// back extends the backed prefix to cover [0, end); end must be within
// the capacity. Bytes between len and cap are always zero (only back
// moves len, and only forward), so growing inside the existing array is a
// reslice.
func (d *DeviceMemory) back(end uint64) {
	switch {
	case end <= uint64(len(d.buf)):
	case end <= uint64(cap(d.buf)):
		d.buf = d.buf[:end]
	default:
		full := d.buf[:cap(d.buf)]
		d.buf = append(full, make([]byte, end-uint64(len(full)))...)
	}
}

// Alloc reserves n bytes of global memory, 256-byte aligned (matching
// cudaMalloc's alignment guarantee), and returns the device address.
func (d *DeviceMemory) Alloc(n int64) (uint64, error) {
	if n < 0 {
		return 0, fmt.Errorf("gpu: negative allocation %d", n)
	}
	addr := (d.next + 255) &^ 255
	end := addr + uint64(n)
	// end < addr catches addr+n wrapping uint64 for huge n; the free
	// count saturates at 0 so an over-capacity aligned cursor reports
	// "0 free" instead of an underflowed garbage number.
	if end < addr || end > d.limit {
		free := uint64(0)
		if addr < d.limit {
			free = d.limit - addr
		}
		return 0, fmt.Errorf("gpu: out of device memory (%d requested, %d free)", n, free)
	}
	d.next = end
	d.back(end)
	return addr, nil
}

func (d *DeviceMemory) check(addr uint64, n int) error {
	// end < addr catches addr+n wrapping uint64 (a wild pointer near
	// 2^64): without the guard the wrapped end passes the upper-bound
	// test and the access panics on the slice instead of faulting.
	end := addr + uint64(n)
	if addr < 256 || end < addr || end > d.limit {
		return fmt.Errorf("gpu: global memory access [%#x, %#x) out of range", addr, end)
	}
	return nil
}

// WriteBytes copies host bytes into device memory (cudaMemcpy H2D).
func (d *DeviceMemory) WriteBytes(addr uint64, p []byte) error {
	if err := d.check(addr, len(p)); err != nil {
		return err
	}
	d.back(addr + uint64(len(p)))
	copy(d.buf[addr:], p)
	return nil
}

// ReadBytes copies device memory to host bytes (cudaMemcpy D2H).
func (d *DeviceMemory) ReadBytes(addr uint64, p []byte) error {
	if err := d.check(addr, len(p)); err != nil {
		return err
	}
	n := 0
	if addr < uint64(len(d.buf)) {
		n = copy(p, d.buf[addr:])
	}
	clear(p[n:]) // never-written bytes above the high-water mark
	return nil
}

// load reads a value of the given element type, widening to register bits.
func (d *DeviceMemory) load(mt ir.MemType, addr uint64) (uint64, error) {
	if err := d.check(addr, mt.Size()); err != nil {
		return 0, err
	}
	return loadZeroExt(d.buf, mt, addr), nil
}

// store writes a register value at the given element width.
func (d *DeviceMemory) store(mt ir.MemType, addr uint64, bits uint64) error {
	if err := d.check(addr, mt.Size()); err != nil {
		return err
	}
	d.back(addr + uint64(mt.Size()))
	storeTo(d.buf, mt, addr, bits)
	return nil
}

// loadZeroExt is loadFrom on a slice that may end before the access
// does: the missing bytes read as zero.
func loadZeroExt(buf []byte, mt ir.MemType, addr uint64) uint64 {
	n := uint64(mt.Size())
	if addr+n <= uint64(len(buf)) {
		return loadFrom(buf, mt, addr)
	}
	var tmp [8]byte
	if addr < uint64(len(buf)) {
		copy(tmp[:n], buf[addr:])
	}
	return loadFrom(tmp[:], mt, 0)
}

func loadFrom(buf []byte, mt ir.MemType, addr uint64) uint64 {
	switch mt {
	case ir.MemI8:
		return uint64(buf[addr]) // zero-extends
	case ir.MemI32, ir.MemF32:
		return uint64(binary.LittleEndian.Uint32(buf[addr:]))
	case ir.MemI64:
		return binary.LittleEndian.Uint64(buf[addr:])
	}
	return 0
}

func storeTo(buf []byte, mt ir.MemType, addr uint64, bits uint64) {
	switch mt {
	case ir.MemI8:
		buf[addr] = byte(bits)
	case ir.MemI32, ir.MemF32:
		binary.LittleEndian.PutUint32(buf[addr:], uint32(bits))
	case ir.MemI64:
		binary.LittleEndian.PutUint64(buf[addr:], bits)
	}
}

// sharedMem is one CTA's scratchpad. Under LaunchParams.WatchShared it
// additionally tracks, per 4-byte bank word, the last thread that wrote
// the word in the current barrier interval — the metadata behind the
// dynamic intra-CTA race check.
type sharedMem struct {
	buf []byte

	// epochs[w]/writers[w] record the barrier interval and CTA-linear
	// thread id of the most recent store covering word w. Allocated only
	// when the launch watches shared memory; epoch starts at 1 so zeroed
	// metadata never reads as "written this interval".
	epoch   uint32
	epochs  []uint32
	writers []int32
}

func newSharedMem(n int64, watch bool) *sharedMem {
	s := &sharedMem{buf: make([]byte, n)}
	if watch && n > 0 {
		s.epoch = 1
		words := (n + BankWidth - 1) / BankWidth
		s.epochs = make([]uint32, words)
		s.writers = make([]int32, words)
	}
	return s
}

// uniformWriter marks a word last written by a warp-uniform store: every
// active lane addressed the same words. The static race detector treats
// uniform-address writes as broadcast initialization rather than race
// candidates, and the dynamic check mirrors that model — reads of such
// words never count as races.
const uniformWriter int32 = -1

// newInterval starts the next barrier interval: earlier stamped writes no
// longer conflict with later reads. Called on every full barrier release.
func (s *sharedMem) newInterval() {
	if s.epochs != nil {
		s.epoch++
	}
}

// stampWrite records thread as the current interval's last writer of
// every word the n-byte store at addr covers. The store is already
// bounds-checked when this runs.
func (s *sharedMem) stampWrite(addr uint64, n int, thread int32) {
	for w := addr / BankWidth; w <= (addr+uint64(n)-1)/BankWidth; w++ {
		s.epochs[w] = s.epoch
		s.writers[w] = thread
	}
}

// readRaced reports whether any word of the n-byte load at addr was
// written in the current barrier interval by a different thread — the
// dynamic form of the static race detector's same-interval hazard.
func (s *sharedMem) readRaced(addr uint64, n int, thread int32) bool {
	for w := addr / BankWidth; w <= (addr+uint64(n)-1)/BankWidth; w++ {
		if s.epochs[w] == s.epoch && s.writers[w] != thread && s.writers[w] != uniformWriter {
			return true
		}
	}
	return false
}

// checkShared guards one shared-memory access; end < addr catches
// addr+size wrapping uint64 (same wild-pointer hazard as DeviceMemory).
func (s *sharedMem) check(mt ir.MemType, addr uint64) error {
	end := addr + uint64(mt.Size())
	if end < addr || end > uint64(len(s.buf)) {
		return fmt.Errorf("gpu: shared memory access [%#x, %#x) out of range (size %d)",
			addr, end, len(s.buf))
	}
	return nil
}

func (s *sharedMem) load(mt ir.MemType, addr uint64) (uint64, error) {
	if err := s.check(mt, addr); err != nil {
		return 0, err
	}
	return loadFrom(s.buf, mt, addr), nil
}

func (s *sharedMem) store(mt ir.MemType, addr uint64, bits uint64) error {
	if err := s.check(mt, addr); err != nil {
		return err
	}
	storeTo(s.buf, mt, addr, bits)
	return nil
}
