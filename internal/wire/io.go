package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"nrmi/internal/bufpool"
)

// writer is the byte-emission layer. Engine V1 uses an unbuffered,
// fixed-width implementation (every primitive is a separate small Write to
// the underlying stream, like the layered JDK 1.3 path); engines V2 and V3
// buffer and use varints for the raw protocol primitives (V3's value
// payloads live inside flat frames and never reach writeUint).
type writer struct {
	raw     io.Writer
	buf     *bufio.Writer // non-nil for V2/V3
	engine  Engine
	scratch [binary.MaxVarintLen64]byte
	count   int64
}

func newWriter(w io.Writer, engine Engine) *writer {
	wr := &writer{raw: w, engine: engine}
	if engine != EngineV1 {
		wr.buf = bufio.NewWriterSize(w, 4096)
	}
	return wr
}

// reset re-arms a pooled writer onto a new destination, reusing the
// buffered engines' bufio buffer.
func (w *writer) reset(dst io.Writer, engine Engine) {
	w.raw = dst
	w.engine = engine
	w.count = 0
	if engine != EngineV1 {
		if w.buf == nil {
			w.buf = bufio.NewWriterSize(dst, 4096)
		} else {
			w.buf.Reset(dst)
		}
	} else {
		w.buf = nil
	}
}

// bytesWritten returns the number of payload bytes emitted so far,
// including bytes still sitting in the V2 buffer.
func (w *writer) bytesWritten() int64 { return w.count }

func (w *writer) write(p []byte) error {
	var err error
	if w.buf != nil {
		_, err = w.buf.Write(p)
	} else {
		_, err = w.raw.Write(p)
	}
	if err == nil {
		w.count += int64(len(p))
	}
	return err
}

func (w *writer) writeByte(b byte) error {
	if w.buf != nil {
		if err := w.buf.WriteByte(b); err != nil {
			return err
		}
		w.count++
		return nil
	}
	return w.write([]byte{b})
}

// writeUint emits an unsigned integer: uvarint under V2/V3, fixed 8 bytes
// big-endian under V1.
func (w *writer) writeUint(v uint64) error {
	if w.engine != EngineV1 {
		n := binary.PutUvarint(w.scratch[:], v)
		return w.write(w.scratch[:n])
	}
	binary.BigEndian.PutUint64(w.scratch[:8], v)
	return w.write(w.scratch[:8])
}

// writeInt emits a signed integer: zigzag varint under V2, fixed 8 bytes
// under V1.
func (w *writer) writeInt(v int64) error {
	if w.engine != EngineV1 {
		n := binary.PutVarint(w.scratch[:], v)
		return w.write(w.scratch[:n])
	}
	binary.BigEndian.PutUint64(w.scratch[:8], uint64(v))
	return w.write(w.scratch[:8])
}

func (w *writer) writeFloat(v float64) error {
	binary.BigEndian.PutUint64(w.scratch[:8], math.Float64bits(v))
	return w.write(w.scratch[:8])
}

func (w *writer) writeString(s string) error {
	if err := w.writeUint(uint64(len(s))); err != nil {
		return err
	}
	if w.engine == EngineV1 {
		// Byte-at-a-time emission: the deliberate V1 inefficiency.
		for i := 0; i < len(s); i++ {
			if err := w.writeByte(s[i]); err != nil {
				return err
			}
		}
		return nil
	}
	// V2 writes straight from the string, avoiding the []byte(s) copy.
	n, err := w.buf.WriteString(s)
	w.count += int64(n)
	return err
}

func (w *writer) flush() error {
	if w.buf != nil {
		return w.buf.Flush()
	}
	return nil
}

// reader is the byte-consumption layer, adapting to the engine announced in
// the stream header. It has two source modes: stream mode (an io.Reader,
// buffered for V2/V3) and bytes mode (the whole message held in data, as
// when the transport hands over a pooled payload). Bytes mode lets slice
// return windows of the payload without copying — the zero-copy input for
// engine V3's flat frames.
type reader struct {
	raw      io.Reader
	br       *bufio.Reader
	data     []byte // bytes mode: the full message
	dpos     int    // bytes mode: read position
	engine   Engine
	scratch  [8]byte
	count    int64
	maxElems int
	// spare parks the bufio.Reader between pooled uses: reset cannot
	// leave br set (the engine of the next stream is unknown until its
	// header arrives), but the 4K buffer is worth keeping.
	spare *bufio.Reader
}

func newReader(r io.Reader, maxElems int) *reader {
	return &reader{raw: r, maxElems: maxElems}
}

// setEngine finalizes the reader once the header announced the engine.
func (r *reader) setEngine(e Engine) {
	r.engine = e
	if e != EngineV1 && r.data == nil {
		if r.spare != nil {
			r.spare.Reset(r.raw)
			r.br, r.spare = r.spare, nil
		} else {
			r.br = bufio.NewReaderSize(r.raw, 4096)
		}
	}
}

// reset re-arms a pooled reader onto a new source. The engine reverts to
// unknown until the next header is read.
func (r *reader) reset(src io.Reader, maxElems int) {
	if r.br != nil {
		r.spare, r.br = r.br, nil
	}
	r.raw = src
	r.data = nil
	r.dpos = 0
	r.engine = 0
	r.count = 0
	r.maxElems = maxElems
}

// resetBytes re-arms a pooled reader onto an in-memory message.
func (r *reader) resetBytes(data []byte, maxElems int) {
	r.reset(nil, maxElems)
	if data == nil {
		// data != nil is what selects bytes mode, so a nil message must
		// read as an empty one, not as a stream with no source.
		data = []byte{}
	}
	r.data = data
}

func (r *reader) bytesRead() int64 { return r.count }

func (r *reader) readFull(p []byte) error {
	if r.data != nil {
		if len(r.data)-r.dpos < len(p) {
			return io.ErrUnexpectedEOF
		}
		copy(p, r.data[r.dpos:])
		r.dpos += len(p)
		r.count += int64(len(p))
		return nil
	}
	var err error
	if r.br != nil {
		_, err = io.ReadFull(r.br, p)
	} else {
		_, err = io.ReadFull(r.raw, p)
	}
	if err == nil {
		r.count += int64(len(p))
	}
	return err
}

func (r *reader) readByte() (byte, error) {
	if r.data != nil {
		if r.dpos >= len(r.data) {
			return 0, io.ErrUnexpectedEOF
		}
		b := r.data[r.dpos]
		r.dpos++
		r.count++
		return b, nil
	}
	if r.br != nil {
		b, err := r.br.ReadByte()
		if err == nil {
			r.count++
		}
		return b, err
	}
	err := r.readFull(r.scratch[:1])
	return r.scratch[0], err
}

// slice returns the next n bytes of the message. In bytes mode the returned
// slice is a window of the underlying payload (zero-copy; owned reports
// false, and the bytes stay valid for as long as the payload does). In
// stream mode the bytes are staged through a pooled buffer (owned reports
// true, and the caller must bufpool.Put it when done).
func (r *reader) slice(n int) (p []byte, owned bool, err error) {
	if n == 0 {
		return nil, false, nil
	}
	if r.data != nil {
		if len(r.data)-r.dpos < n {
			return nil, false, io.ErrUnexpectedEOF
		}
		p = r.data[r.dpos : r.dpos+n : r.dpos+n]
		r.dpos += n
		r.count += int64(n)
		return p, false, nil
	}
	p = bufpool.Get(n)
	if err := r.readFull(p); err != nil {
		bufpool.Put(p)
		return nil, false, err
	}
	return p, true, nil
}

// ReadByte implements io.ByteReader so the reader can be handed to
// binary.ReadUvarint directly. The previous adapter (a method-value
// closure) allocated once per varint read — the single hottest
// allocation site in the V2 decode path.
func (r *reader) ReadByte() (byte, error) { return r.readByte() }

func (r *reader) readUint() (uint64, error) {
	if r.engine != EngineV1 {
		v, err := binary.ReadUvarint(r)
		return v, err
	}
	if err := r.readFull(r.scratch[:8]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(r.scratch[:8]), nil
}

func (r *reader) readInt() (int64, error) {
	if r.engine != EngineV1 {
		return binary.ReadVarint(r)
	}
	if err := r.readFull(r.scratch[:8]); err != nil {
		return 0, err
	}
	return int64(binary.BigEndian.Uint64(r.scratch[:8])), nil
}

func (r *reader) readFloat() (float64, error) {
	if err := r.readFull(r.scratch[:8]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.BigEndian.Uint64(r.scratch[:8])), nil
}

// readLen reads a length field and enforces the sanity limit.
func (r *reader) readLen() (int, error) {
	v, err := r.readUint()
	if err != nil {
		return 0, err
	}
	if v > uint64(r.maxElems) {
		return 0, fmt.Errorf("%w: length %d > max %d", ErrLimit, v, r.maxElems)
	}
	return int(v), nil
}

func (r *reader) readString() (string, error) {
	n, err := r.readLen()
	if err != nil {
		return "", err
	}
	if n == 0 {
		return "", nil
	}
	// Stage through a pooled buffer; string(p) makes the only copy that
	// escapes, so the scratch space is recycled immediately.
	p := bufpool.Get(n)
	err = r.readFull(p)
	s := ""
	if err == nil {
		s = string(p)
	}
	bufpool.Put(p)
	return s, err
}
