//go:build unix

package shmfab

import (
	"fmt"
	"os"
	"syscall"
	"time"
)

// mmapSupported reports whether this build can map shared segments (and
// make doorbell FIFOs) at all.
const mmapSupported = true

// mapCreate creates the segment file with the exact size and maps it
// shared. The file is created exclusively: a leftover segment from a
// crashed run with the same name is an error, not something to silently
// reuse (boot IDs make collisions practically impossible).
func mapCreate(path string, size int) ([]byte, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return nil, fmt.Errorf("shmfab: create segment: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(int64(size)); err != nil {
		os.Remove(path)
		return nil, fmt.Errorf("shmfab: size segment: %w", err)
	}
	mem, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		os.Remove(path)
		return nil, fmt.Errorf("shmfab: mmap %s: %w", path, err)
	}
	return mem, nil
}

// mapOpen maps an existing segment file shared, whole.
func mapOpen(path string) ([]byte, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("shmfab: open segment: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("shmfab: stat segment: %w", err)
	}
	mem, err := syscall.Mmap(int(f.Fd()), 0, int(st.Size()), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("shmfab: mmap %s: %w", path, err)
	}
	return mem, nil
}

func mapClose(mem []byte) error {
	if mem == nil {
		return nil
	}
	return syscall.Munmap(mem)
}

// bellCreate makes the doorbell FIFO and opens the receiving rank's end.
// O_RDWR keeps a writer on the FIFO for as long as the reader lives, so
// the open never blocks and a read never sees end-of-file; os.OpenFile
// puts a FIFO in non-blocking mode and registers it with the runtime's
// network poller, so a Read on an empty bell parks the goroutine and
// holds no thread.
func bellCreate(path string) (*os.File, error) {
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		return nil, fmt.Errorf("shmfab: create doorbell %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err == nil {
		// A file the poller cannot watch would block a thread in read.
		if err = f.SetReadDeadline(time.Time{}); err != nil {
			f.Close()
		}
	}
	if err != nil {
		os.Remove(path)
		return nil, fmt.Errorf("shmfab: open doorbell: %w", err)
	}
	return f, nil
}

// bellOpen opens a sender's end of a doorbell another rank created.
func bellOpen(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|syscall.O_NONBLOCK, 0)
	if err != nil {
		return nil, fmt.Errorf("shmfab: open doorbell: %w", err)
	}
	return f, nil
}
