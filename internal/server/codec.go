package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"jaws"
	"jaws/internal/engine"
)

// The /query wire codec. QueryRequest and QueryResponse stay the schema;
// the two functions below read and write that schema without reflection
// and without holding a whole body in memory. The decoder accepts what
// encoding/json's strict decoder (DisallowUnknownFields) accepts into a
// QueryRequest and decodes it to the same values, except that it also
// rejects a key naming a field already set in the same object and anything
// but whitespace after the request. The encoder writes, byte for byte,
// what json.NewEncoder(w).Encode(QueryResponse{…}) writes. Both are held
// to encoding/json by the differential tests in codec_test.go.

// DecodedRequest is a /query body as the handler consumes it: the fields
// of QueryRequest with the positions already in engine form, in an array
// of exactly their number that the caller owns.
type DecodedRequest struct {
	Step       int
	Kernel     string
	Points     []jaws.Position
	TimeoutMS  int64
	DerivSteps int
}

// readBufSize is the decoder's whole view of a body: input is parsed as it
// arrives and never accumulated.
const readBufSize = 4096

// decoder is one pass over one request body. Pooled: buf and tokArr are
// fixed, pts grows to at most defaultMaxPoints positions (a larger
// request's scratch is dropped, not pooled).
type decoder struct {
	r        io.Reader
	err      error // first read error; io.EOF at a clean end of input
	ended    bool  // the input is used up: every byte read from now on is the 0 that stands for its end
	pos, end int   // unread input is buf[pos:end]
	buf      [readBufSize]byte
	// tok is the current string (unquoted) or number literal. It starts
	// in tokArr and spills to the heap only past 64 bytes, which no key,
	// kernel name or sensible number reaches.
	tok    []byte
	tokArr [64]byte
	pts    []jaws.Position
}

var decoderPool = sync.Pool{New: func() any { return new(decoder) }}

// DecodeQueryRequest reads one request object from r, which must hold
// nothing else but whitespace. A read error is returned as it is, so a
// caller reading through http.MaxBytesReader finds its *MaxBytesError.
func DecodeQueryRequest(r io.Reader) (DecodedRequest, error) {
	d := decoderPool.Get().(*decoder)
	d.r, d.err, d.ended, d.pos, d.end = r, nil, false, 0, 0
	in, err := d.request()
	if err == nil && len(d.pts) > 0 {
		in.Points = make([]jaws.Position, len(d.pts))
		copy(in.Points, d.pts)
	}
	d.r, d.pts = nil, d.pts[:0]
	if cap(d.pts) > defaultMaxPoints {
		d.pts = nil
	}
	decoderPool.Put(d)
	return in, err
}

// fill replaces the consumed buffer with the next input and reports
// whether there is any.
func (d *decoder) fill() bool {
	for empty := 0; d.err == nil; empty++ {
		if empty == 100 {
			d.err = io.ErrNoProgress
			break
		}
		n, err := d.r.Read(d.buf[:])
		d.pos, d.end, d.err = 0, n, err
		if n > 0 {
			return true
		}
	}
	d.ended = true
	return false
}

// peek returns the next byte without consuming it, 0 at the end of the
// input. No JSON token may contain a 0 byte, so callers treat it like any
// other unexpected byte and d.ended tells the two apart.
func (d *decoder) peek() byte {
	if d.pos == d.end && !d.fill() {
		return 0
	}
	return d.buf[d.pos]
}

// next consumes and returns the next byte, 0 at the end of the input.
func (d *decoder) next() byte {
	if d.pos == d.end && !d.fill() {
		return 0
	}
	d.pos++
	return d.buf[d.pos-1]
}

// skipSpace consumes whitespace and returns the byte that ended it.
func (d *decoder) skipSpace() byte {
	for {
		if c := d.next(); c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return c
		}
	}
}

// bad is the error for c, the byte just consumed, where the grammar does
// not allow it: the read error if c stands for the end of the input.
func (d *decoder) bad(c byte, context string) error {
	if c == 0 && d.ended {
		if d.err == io.EOF {
			return io.ErrUnexpectedEOF
		}
		return d.err
	}
	return fmt.Errorf("invalid character %q %s", c, context)
}

var (
	requestKeys = [...]string{"step", "kernel", "points", "timeout_ms", "deriv_steps"}
	pointKeys   = [...]string{"x", "y", "z"}
)

// key reads an object key, its opening quote c and the colon after it,
// and returns the index in names of the field it selects — as
// encoding/json selects it: the exact name, else a case-insensitive match
// under Unicode simple folding (no two names match each other that way).
// seen is the set of fields the object has already named.
func (d *decoder) key(c byte, names []string, seen *uint) (int, error) {
	if c != '"' {
		return 0, d.bad(c, "looking for an object key")
	}
	if err := d.str(); err != nil {
		return 0, err
	}
	f := 0
	for f < len(names) && string(d.tok) != names[f] && !bytes.EqualFold(d.tok, []byte(names[f])) {
		f++
	}
	if f == len(names) {
		return 0, fmt.Errorf("unknown field %q", d.tok)
	}
	if *seen&(1<<f) != 0 {
		return 0, fmt.Errorf("duplicate field %q", d.tok)
	}
	*seen |= 1 << f
	if c := d.skipSpace(); c != ':' {
		return 0, d.bad(c, "after an object key")
	}
	return f, nil
}

// more consumes the separator after an object member or array element
// (end is the closing bracket) and reports whether another follows; if
// so, c is its first byte.
func (d *decoder) more(end byte) (c byte, ok bool, err error) {
	switch c := d.skipSpace(); c {
	case ',':
		return d.skipSpace(), true, nil
	case end:
		return 0, false, nil
	default:
		return 0, false, d.bad(c, "after a value")
	}
}

// request parses the top-level value. A null, like any null below, leaves
// its target at the zero value, as json.Decode does.
func (d *decoder) request() (in DecodedRequest, err error) {
	switch c := d.skipSpace(); c {
	case '{':
	case 'n':
		if err = d.literal("ull"); err != nil {
			return in, err
		}
		return in, d.endOfInput()
	default:
		return in, d.bad(c, "looking for the request object")
	}
	var seen uint
	c := d.skipSpace()
	for more := c != '}'; more; {
		f, err := d.key(c, requestKeys[:], &seen)
		if err != nil {
			return in, err
		}
		var n int64
		switch f {
		case 0:
			n, err = d.intValue(strconv.IntSize)
			in.Step = int(n)
		case 1:
			in.Kernel, err = d.kernelValue()
		case 2:
			err = d.points()
		case 3:
			in.TimeoutMS, err = d.intValue(64)
		case 4:
			n, err = d.intValue(strconv.IntSize)
			in.DerivSteps = int(n)
		}
		if err == nil {
			c, more, err = d.more('}')
		}
		if err != nil {
			return in, err
		}
	}
	return in, d.endOfInput()
}

// endOfInput accepts only whitespace up to a clean end of the input.
func (d *decoder) endOfInput() error {
	c := d.skipSpace()
	if c == 0 && d.ended && d.err == io.EOF {
		return nil
	}
	return d.bad(c, "after the request object")
}

// points parses the points array (or null) into d.pts.
func (d *decoder) points() error {
	switch c := d.skipSpace(); c {
	case '[':
	case 'n':
		return d.literal("ull")
	default:
		return d.bad(c, "looking for the array of points")
	}
	c := d.skipSpace()
	for more := c != ']'; more; {
		var p jaws.Position
		var err error
		switch c {
		case '{':
			p, err = d.point()
		case 'n':
			err = d.literal("ull")
		default:
			err = d.bad(c, "looking for a point object")
		}
		if err == nil {
			d.pts = append(d.pts, p)
			c, more, err = d.more(']')
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// point parses one point object, its opening brace already consumed.
func (d *decoder) point() (jaws.Position, error) {
	var seen uint
	var v [len(pointKeys)]float64
	c := d.skipSpace()
	for more := c != '}'; more; {
		f, err := d.key(c, pointKeys[:], &seen)
		if err == nil {
			v[f], err = d.floatValue()
		}
		if err == nil {
			c, more, err = d.more('}')
		}
		if err != nil {
			return jaws.Position{}, err
		}
	}
	return jaws.Position{X: v[0], Y: v[1], Z: v[2]}, nil
}

// numeric reads a number literal into d.tok; for a null instead, which
// leaves a field at zero, ok is false.
func (d *decoder) numeric() (ok bool, err error) {
	c := d.skipSpace()
	if c == 'n' {
		return false, d.literal("ull")
	}
	if c != '-' && (c < '0' || c > '9') {
		return false, d.bad(c, "looking for a number")
	}
	return true, d.number(c)
}

// intValue parses an integer field of the given width: a number literal
// strconv.ParseInt accepts (no fraction, no exponent, in range), or null.
func (d *decoder) intValue(bits int) (int64, error) {
	if ok, err := d.numeric(); !ok {
		return 0, err
	}
	n, err := strconv.ParseInt(string(d.tok), 10, bits)
	if err != nil {
		return 0, fmt.Errorf("cannot use number %s as an integer", d.tok)
	}
	return n, nil
}

// floatValue parses a coordinate: a number literal within float64 range
// (strconv.ParseFloat decides, as in encoding/json), or null.
func (d *decoder) floatValue() (float64, error) {
	if ok, err := d.numeric(); !ok {
		return 0, err
	}
	v, err := strconv.ParseFloat(string(d.tok), 64)
	if err != nil {
		return 0, fmt.Errorf("cannot use number %s as a float64", d.tok)
	}
	return v, nil
}

// kernelValue parses the kernel field, a string or null. A kernel's wire
// name comes back as the constant, so only a name the handler will refuse
// costs an allocation.
func (d *decoder) kernelValue() (string, error) {
	switch c := d.skipSpace(); c {
	case '"':
		if err := d.str(); err != nil {
			return "", err
		}
		for name := range kernels {
			if string(d.tok) == name {
				return name, nil
			}
		}
		return string(d.tok), nil
	case 'n':
		return "", d.literal("ull")
	default:
		return "", d.bad(c, "looking for a string")
	}
}

// literal consumes rest, the remainder of a keyword whose first byte the
// caller has consumed.
func (d *decoder) literal(rest string) error {
	for i := 0; i < len(rest); i++ {
		if c := d.next(); c != rest[i] {
			return d.bad(c, "in literal")
		}
	}
	return nil
}

// number scans a JSON number literal whose first byte c ('-' or a digit)
// is consumed, into d.tok. The byte after it is left for the caller, whose
// grammar admits only a separator there.
func (d *decoder) number(c byte) error {
	d.tok = append(d.tokArr[:0], c)
	if c == '-' {
		if c = d.next(); c < '0' || c > '9' {
			return d.bad(c, "in numeric literal")
		}
		d.tok = append(d.tok, c)
	}
	if c != '0' {
		d.digits()
	}
	if d.peek() == '.' {
		d.tok = append(d.tok, d.next())
		if !d.digits() {
			return d.bad(d.next(), "after decimal point in numeric literal")
		}
	}
	if c = d.peek(); c == 'e' || c == 'E' {
		d.tok = append(d.tok, d.next())
		if c = d.peek(); c == '+' || c == '-' {
			d.tok = append(d.tok, d.next())
		}
		if !d.digits() {
			return d.bad(d.next(), "in exponent of numeric literal")
		}
	}
	return nil
}

// digits appends the run of digits at the cursor to d.tok and reports
// whether there was one.
func (d *decoder) digits() bool {
	n := len(d.tok)
	for c := d.peek(); '0' <= c && c <= '9'; c = d.peek() {
		d.tok = append(d.tok, c)
		d.pos++
	}
	return len(d.tok) > n
}

// str scans a string whose opening quote is consumed and leaves its value
// in d.tok, unquoted as encoding/json unquotes: escapes resolved, a \u
// surrogate pair joined and a lone surrogate replaced by U+FFFD, each
// byte of invalid UTF-8 replaced by U+FFFD.
func (d *decoder) str() error {
	d.tok = d.tokArr[:0]
	high := rune(0) // a \u high surrogate waiting for its low half
	raw := false    // saw a byte ≥ 0x80 outside an escape
	for {
		c := d.next()
		if c == '\\' {
			r, err := d.escape()
			if err != nil {
				return err
			}
			if high != 0 {
				if pair := utf16.DecodeRune(high, r); pair != utf8.RuneError {
					r = pair
				} else {
					d.tok = utf8.AppendRune(d.tok, utf8.RuneError)
				}
				high = 0
			}
			if 0xD800 <= r && r < 0xDC00 {
				high = r
			} else {
				d.tok = utf8.AppendRune(d.tok, r) // U+FFFD for a lone low half
			}
			continue
		}
		if high != 0 {
			d.tok = utf8.AppendRune(d.tok, utf8.RuneError)
			high = 0
		}
		switch {
		case c == '"':
			if raw && !utf8.Valid(d.tok) {
				d.tok = []byte(string([]rune(string(d.tok))))
			}
			return nil
		case c < ' ':
			return d.bad(c, "in string literal")
		}
		raw = raw || c >= utf8.RuneSelf
		d.tok = append(d.tok, c)
	}
}

// escape resolves the escape sequence after a backslash; for \u it
// returns the UTF-16 code unit, which may be half a surrogate pair.
func (d *decoder) escape() (rune, error) {
	c := d.next()
	if i := strings.IndexByte(`"\/bfnrt`, c); i >= 0 {
		return rune("\"\\/\b\f\n\r\t"[i]), nil
	}
	if c != 'u' {
		return 0, d.bad(c, "in string escape code")
	}
	var r rune
	for i := 0; i < 4; i++ {
		c := d.next()
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, d.bad(c, "in \\u hexadecimal character escape")
		}
		r = r<<4 | rune(c)
	}
	return r, nil
}

const (
	// writeBufSize is the encoder's whole view of a response; the buffer
	// is flushed whenever less than maxValueLen is free.
	writeBufSize = 16384
	// maxValueLen bounds one encoded PointValue with its comma: seven
	// floats of at most 25 bytes each plus 58 bytes of keys and brackets.
	maxValueLen = 256
)

var writeBufPool = sync.Pool{New: func() any { return new([writeBufSize]byte) }}

// ErrNonFinite is WriteQueryResponse's refusal to encode a NaN or an
// infinity, which JSON cannot carry.
var ErrNonFinite = errors.New("non-finite value")

// WriteQueryResponse writes the QueryResponse with the given ID, virtual
// response time and values to w, followed by a newline. It checks every
// value first and returns ErrNonFinite before writing anything, so an
// HTTP caller can still choose the status; any other error is w's.
func WriteQueryResponse(w io.Writer, id int64, virtualSeconds float64, values []engine.PointSample) error {
	if !finite(virtualSeconds) {
		return ErrNonFinite
	}
	for i := range values {
		p := &values[i]
		for _, f := range [...]float64{p.Pos.X, p.Pos.Y, p.Pos.Z, p.Val[0], p.Val[1], p.Val[2], p.Val[3]} {
			if !finite(f) {
				return ErrNonFinite
			}
		}
	}
	buf := writeBufPool.Get().(*[writeBufSize]byte)
	defer writeBufPool.Put(buf)
	b := append(buf[:0], `{"query_id":`...)
	b = strconv.AppendInt(b, id, 10)
	b = append(b, `,"virtual_seconds":`...)
	b = appendFloat(b, virtualSeconds)
	b = append(b, `,"values":[`...)
	for i := range values {
		if len(b) > writeBufSize-maxValueLen {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
		if i > 0 {
			b = append(b, ',')
		}
		p := &values[i]
		b = append(b, `{"position":{"x":`...)
		b = appendFloat(b, p.Pos.X)
		b = append(b, `,"y":`...)
		b = appendFloat(b, p.Pos.Y)
		b = append(b, `,"z":`...)
		b = appendFloat(b, p.Pos.Z)
		b = append(b, `},"velocity":[`...)
		b = appendFloat(b, p.Val[0])
		b = append(b, ',')
		b = appendFloat(b, p.Val[1])
		b = append(b, ',')
		b = appendFloat(b, p.Val[2])
		b = append(b, `],"pressure":`...)
		b = appendFloat(b, p.Val[3])
		b = append(b, '}')
	}
	b = append(b, "]}\n"...)
	_, err := w.Write(b)
	return err
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// appendFloat formats f as encoding/json does (the ES6 number-to-string
// rule): shortest digits that round-trip, exponent form only below 1e-6
// and from 1e21, and a negative exponent without a leading zero.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
