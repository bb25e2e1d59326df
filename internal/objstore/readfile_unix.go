//go:build unix

package objstore

import (
	"errors"
	"io/fs"
	"syscall"
)

// readFile reads the file at path as os.ReadFile does: the same bytes,
// an empty non-nil slice for an empty file, and *fs.PathError failures,
// which wrap fs.ErrNotExist on a miss (a failed read returns no bytes).
// It makes only the system calls the read needs — open, fstat, read
// until EOF, close — on a bare descriptor. An *os.File would also set
// and clear O_NONBLOCK, try to register the descriptor with the network
// poller and set a finalizer, all for a file that is read once.
func readFile(path string) ([]byte, error) {
	var fd int
	var err error
	for {
		// O_CLOEXEC as os.Open has it: a process spawned meanwhile must
		// not inherit the descriptor.
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		if !errors.Is(err, syscall.EINTR) {
			break
		}
	}
	if err != nil {
		return nil, &fs.PathError{Op: "open", Path: path, Err: err}
	}
	defer syscall.Close(fd)

	// As in os.ReadFile, a failed stat only costs the size hint, and one
	// byte more than the size lets the read that meets EOF land without
	// growing the buffer.
	size := 0
	var st syscall.Stat_t
	if syscall.Fstat(fd, &st) == nil && st.Size > 0 && int64(int(st.Size)) == st.Size {
		size = int(st.Size)
	}
	data := make([]byte, 0, size+1)
	for {
		n, err := syscall.Read(fd, data[len(data):cap(data)])
		if errors.Is(err, syscall.EINTR) {
			continue
		}
		if err != nil {
			return nil, &fs.PathError{Op: "read", Path: path, Err: err}
		}
		if n == 0 {
			return data, nil
		}
		data = data[:len(data)+n]
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)] // the file grew: make room
		}
	}
}
