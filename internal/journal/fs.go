package journal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// FS is the filesystem surface the journal writes through. Production
// code uses OSFS; crash-recovery tests inject implementations that fail
// or tear writes at chosen points, so every "the power went out here"
// window is exercised without actually pulling the plug.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadDir(name string) ([]os.DirEntry, error)
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir flushes the directory entry metadata (creates, renames,
	// removes) for dir to stable storage.
	SyncDir(dir string) error
}

// File is the subset of *os.File the journal needs.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (OSFS) Remove(name string) error             { return os.Remove(name) }

func (OSFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

func (OSFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	// Some filesystems refuse to fsync a directory handle; the renames
	// and creates are still ordered there, so degrade instead of failing
	// the journal.
	if err != nil && (errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP)) {
		return nil
	}
	return err
}

// readFile reads name in full through fsys, into one buffer allocated at
// the size Stat reports rather than regrown across a multi-MiB segment.
func readFile(fsys FS, name string) ([]byte, error) {
	f, err := fsys.OpenFile(name, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	var data []byte
	fi, err := f.Stat()
	if err == nil {
		// The spare MinRead bytes let ReadFrom see EOF without growing.
		buf := bytes.NewBuffer(make([]byte, 0, fi.Size()+bytes.MinRead))
		_, err = buf.ReadFrom(f)
		data = buf.Bytes()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return data, err
}

// fileSize stats name through fsys without reading it.
func fileSize(fsys FS, name string) (int64, error) {
	f, err := fsys.OpenFile(name, os.O_RDONLY, 0)
	if err != nil {
		return 0, err
	}
	fi, err := f.Stat()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// WriteFileAtomic writes a file so a crash at any point leaves either the
// old content or the new content, never a mix: the payload goes to a
// temporary file in the same directory, is fsynced, renamed over path,
// and the directory entry is fsynced. The write callback receives the
// temporary file's writer.
func WriteFileAtomic(fsys FS, path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: creating %s: %w", tmp, err)
	}
	cleanup := func(err error) error {
		//lint:ignore no-dropped-error best-effort cleanup of the temp file; the original failure is what gets reported
		f.Close()
		//lint:ignore no-dropped-error best-effort cleanup of the temp file; the original failure is what gets reported
		fsys.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(fmt.Errorf("journal: syncing %s: %w", tmp, err))
	}
	if err := f.Close(); err != nil {
		//lint:ignore no-dropped-error best-effort cleanup of the temp file; the close failure is what gets reported
		fsys.Remove(tmp)
		return fmt.Errorf("journal: closing %s: %w", tmp, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		//lint:ignore no-dropped-error best-effort cleanup of the temp file; the rename failure is what gets reported
		fsys.Remove(tmp)
		return fmt.Errorf("journal: publishing %s: %w", path, err)
	}
	return fsys.SyncDir(filepath.Dir(path))
}
