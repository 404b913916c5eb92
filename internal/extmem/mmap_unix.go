//go:build unix

package extmem

import (
	"fmt"
	"syscall"
)

// mapRead maps the file's current length read-only, so ReadAt copies
// spans inside it out of memory instead of issuing a pread. An empty
// file or a failed mmap leaves the file on pread with the same ledger,
// so neither is an error. mapRead and unmap must not run concurrently
// with any transfer on the file.
func (bf *BlockFile) mapRead() {
	n := bf.n.Load() * RecordBytes
	if n <= 0 || n != int64(int(n)) {
		return
	}
	if mm, err := syscall.Mmap(int(bf.f.Fd()), 0, int(n), syscall.PROT_READ, syscall.MAP_SHARED); err == nil {
		bf.mm = mm
	}
}

// unmap drops the mapping, if any, and reports a file that shrank below
// it while mapped: whole pages past the new end fault, but the lost
// tail of the last page reads as zeros, so only the size tells.
func (bf *BlockFile) unmap() error {
	if bf.mm == nil {
		return nil
	}
	n := len(bf.mm)
	_ = syscall.Munmap(bf.mm) // fails only for an address mmap never returned
	bf.mm = nil
	fi, err := bf.f.Stat()
	if err == nil && fi.Size() < int64(n) {
		err = fmt.Errorf("extmem: %s shrank to %d bytes below its %d-byte mapping", bf.path, fi.Size(), n)
	}
	return err
}
