//go:build !unix

package extmem

// mapRead and unmap are no-ops where syscall.Mmap does not exist: every
// read goes through pread, with the same ledger.
func (bf *BlockFile) mapRead()     {}
func (bf *BlockFile) unmap() error { return nil }
