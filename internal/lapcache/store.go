package lapcache

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/blockdev"
)

// BackingStore is the slow medium behind the cache — the runtime
// counterpart of the simulator's disk array. Implementations must be
// safe for concurrent use: the engine issues demand reads from request
// goroutines and prefetch reads from its worker pool at the same time.
type BackingStore interface {
	// ReadBlock fills buf (exactly one block) with the contents of b.
	ReadBlock(b blockdev.BlockID, buf []byte) error
	// WriteBlock persists one block of data for b.
	WriteBlock(b blockdev.BlockID, data []byte) error
}

// MemStore is an in-memory BackingStore with optional injected
// latency, for tests and benchmarks. Blocks never written read back as
// a deterministic pattern derived from their identity, so any trace
// can be replayed without preloading data.
type MemStore struct {
	blockSize int
	latency   time.Duration

	mu     sync.RWMutex
	blocks map[blockdev.BlockID][]byte
}

// NewMemStore returns a MemStore serving blocks of blockSize bytes,
// sleeping latency on every read (0 for none) to stand in for disk
// service time.
func NewMemStore(blockSize int, latency time.Duration) *MemStore {
	if blockSize <= 0 {
		panic(fmt.Sprintf("lapcache: invalid block size %d", blockSize))
	}
	return &MemStore{
		blockSize: blockSize,
		latency:   latency,
		blocks:    make(map[blockdev.BlockID][]byte),
	}
}

// FillPattern writes the deterministic content of block b into buf:
// a repeating stamp of the file ID and block number, so end-to-end
// tests can verify data integrity without storing anything.
func FillPattern(b blockdev.BlockID, buf []byte) {
	stamp := [8]byte{
		byte(b.File), byte(b.File >> 8), byte(b.File >> 16), byte(b.File >> 24),
		byte(b.Block), byte(b.Block >> 8), byte(b.Block >> 16), byte(b.Block >> 24),
	}
	// Write the stamp once, then double what is written: a block takes
	// a dozen copies rather than a loop over every byte.
	for n := copy(buf, stamp[:]); n < len(buf); n *= 2 {
		copy(buf[n:], buf[:n])
	}
}

// ReadBlock implements BackingStore.
func (s *MemStore) ReadBlock(b blockdev.BlockID, buf []byte) error {
	if s.latency > 0 {
		time.Sleep(s.latency)
	}
	// The copy stays under the read lock: WriteBlock overwrites a
	// stored block in place.
	s.mu.RLock()
	defer s.mu.RUnlock()
	if data, ok := s.blocks[b]; ok {
		copy(buf, data)
		return nil
	}
	FillPattern(b, buf)
	return nil
}

// WriteBlock implements BackingStore. An overwrite copies into the
// block already stored and allocates nothing.
func (s *MemStore) WriteBlock(b blockdev.BlockID, data []byte) error {
	s.mu.Lock()
	blk, ok := s.blocks[b]
	if !ok {
		blk = make([]byte, s.blockSize)
		s.blocks[b] = blk
	}
	clear(blk[copy(blk, data):])
	s.mu.Unlock()
	return nil
}

// FileStore is a BackingStore over real files: one file per FileID
// under a directory, blocks at their natural offsets. Reads past a
// file's current length return zeroes (sparse semantics), so a fresh
// directory serves any trace; any other read error is returned.
type FileStore struct {
	dir       string
	blockSize int64

	mu    sync.Mutex
	files map[blockdev.FileID]*os.File
}

// NewFileStore returns a FileStore rooted at dir, creating it if
// needed.
func NewFileStore(dir string, blockSize int64) (*FileStore, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("lapcache: invalid block size %d", blockSize)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &FileStore{
		dir:       dir,
		blockSize: blockSize,
		files:     make(map[blockdev.FileID]*os.File),
	}, nil
}

// handle returns (opening on first use) the OS file backing f.
func (s *FileStore) handle(f blockdev.FileID) (*os.File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fh, ok := s.files[f]; ok {
		return fh, nil
	}
	fh, err := os.OpenFile(filepath.Join(s.dir, fmt.Sprintf("f%08d.dat", f)),
		os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	s.files[f] = fh
	return fh, nil
}

// ReadBlock implements BackingStore.
func (s *FileStore) ReadBlock(b blockdev.BlockID, buf []byte) error {
	fh, err := s.handle(b.File)
	if err != nil {
		return err
	}
	n, err := fh.ReadAt(buf, int64(b.Block)*s.blockSize)
	if err == io.EOF {
		// Past the end of the file: the tail is zeroes.
		clear(buf[n:])
		return nil
	}
	return err
}

// WriteBlock implements BackingStore.
func (s *FileStore) WriteBlock(b blockdev.BlockID, data []byte) error {
	fh, err := s.handle(b.File)
	if err != nil {
		return err
	}
	_, err = fh.WriteAt(data, int64(b.Block)*s.blockSize)
	return err
}

// Close releases every open file handle.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for id, fh := range s.files {
		if err := fh.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.files, id)
	}
	return first
}
