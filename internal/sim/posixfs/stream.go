package posixfs

import "fmt"

// Stream is a FILE*-style buffered handle. The paper's conflict detector must
// handle the same file being accessed simultaneously through an int fd
// (pwrite) and a FILE* (fwrite); Stream provides the second handle kind.
// Streams wrap an underlying descriptor, so two handles to one path really
// are distinct handles with distinct positions.
type Stream struct {
	p      *Proc
	fd     int
	id     int
	closed bool
}

// Fopen opens path with a C fopen-style mode string: "r", "r+", "w", "w+",
// "a", "a+".
func (p *Proc) Fopen(path, mode string) (*Stream, error) {
	var flags OpenFlag
	switch mode {
	case "r":
		flags = ORdonly
	case "r+":
		flags = ORdwr
	case "w":
		flags = OWronly | OCreate | OTrunc
	case "w+":
		flags = ORdwr | OCreate | OTrunc
	case "a":
		flags = OWronly | OCreate | OAppend
	case "a+":
		flags = ORdwr | OCreate | OAppend
	default:
		return nil, fmt.Errorf("%w: fopen mode %q", ErrInvalid, mode)
	}
	fd, err := p.Open(path, flags)
	if err != nil {
		return nil, err
	}
	return &Stream{p: p, fd: fd, id: fd}, nil
}

// ID returns a stable identifier for the stream, distinct from any raw fd
// currently open (it reuses the underlying descriptor number, which is
// unique per process).
func (s *Stream) ID() int { return s.id }

// Fwrite writes count items of size bytes each, C fwrite-style, and returns
// the number of items written.
func (s *Stream) Fwrite(data []byte, size, count int) (int, error) {
	if err := s.ok(); err != nil {
		return 0, err
	}
	if size <= 0 || count < 0 {
		return 0, ErrInvalid
	}
	total := size * count
	if total > len(data) {
		return 0, fmt.Errorf("%w: fwrite of %d bytes from %d-byte buffer", ErrInvalid, total, len(data))
	}
	n, err := s.p.Write(s.fd, data[:total])
	return n / size, err
}

// Fread reads count items of size bytes each into dst and returns the number
// of complete items read.
func (s *Stream) Fread(dst []byte, size, count int) (int, error) {
	if err := s.ok(); err != nil {
		return 0, err
	}
	if size <= 0 || count < 0 {
		return 0, ErrInvalid
	}
	total := size * count
	if total > len(dst) {
		return 0, fmt.Errorf("%w: fread of %d bytes into %d-byte buffer", ErrInvalid, total, len(dst))
	}
	n, err := s.p.Read(s.fd, dst[:total])
	return n / size, err
}

// Fseek repositions the stream.
func (s *Stream) Fseek(off int64, whence int) error {
	if err := s.ok(); err != nil {
		return err
	}
	_, err := s.p.Lseek(s.fd, off, whence)
	return err
}

// Ftell reports the current stream position.
func (s *Stream) Ftell() (int64, error) {
	if err := s.ok(); err != nil {
		return 0, err
	}
	return s.p.Tell(s.fd)
}

// Fclose closes the stream (and publishes under session consistency, like
// close).
func (s *Stream) Fclose() error {
	if err := s.ok(); err != nil {
		return err
	}
	s.closed = true
	return s.p.Close(s.fd)
}

// Path reports the path the stream refers to.
func (s *Stream) Path() (string, error) {
	if err := s.ok(); err != nil {
		return "", err
	}
	return s.p.Path(s.fd)
}

func (s *Stream) ok() error {
	if s.closed {
		return fmt.Errorf("%w: stream %d is closed", ErrBadFD, s.id)
	}
	return nil
}
