package proto

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// maxNestingDepth is encoding/json's limit on nested arrays and objects.
// Both the envelope scan and the body decoder enforce it, so they refuse
// exactly the documents encoding/json refuses for depth.
const maxNestingDepth = 10000

// Envelope scan outcomes.
var (
	// errMalformed marks a payload the scan cannot follow.
	errMalformed = errors.New("malformed envelope")
	// errUnterminated marks a value still open at the end of the payload.
	errUnterminated = errors.New("unterminated value")
)

// bodySpan finds the value of the envelope's top-level "body" member
// (matched as encoding/json matches field names) in one string-aware
// pass. It validates nothing inside the value: Read decodes every byte
// outside the span with encoding/json, and DecodeBody validates the
// span. start is -1 when the object has no body member.
//
// A body cut short — still open at the end of the payload, or closed
// only by the envelope's own final '}' — is taken to run up to that
// brace, so the header is read and DecodeBody refuses the body in-band.
// Such a span is never valid JSON: a valid value closes before the
// envelope does.
//
// An error reports a payload that is not an object, is malformed outside
// the body, repeats the body key, or nests deeper than encoding/json
// allows; Read then hands the whole payload to encoding/json, which
// decides it as it always has.
func bodySpan(p []byte) (start, end int, err error) {
	start, end = -1, -1
	i := skipSpace(p, 0)
	if i == len(p) || p[i] != '{' {
		return start, end, errMalformed
	}
	if i = skipSpace(p, i+1); i < len(p) && p[i] == '}' {
		return start, end, nil
	}
	for {
		keyEnd, ok := skipString(p, i)
		if !ok {
			return start, end, errMalformed
		}
		key := p[i:keyEnd]
		if i = skipSpace(p, keyEnd); i == len(p) || p[i] != ':' {
			return start, end, errMalformed
		}
		i = skipSpace(p, i+1)
		isBody := quotedKeyIs(key, "BODY")
		if isBody && start >= 0 {
			return start, end, errMalformed
		}
		// The envelope object is one level; its values may use the rest.
		valueEnd, err := skipLoose(p, i, maxNestingDepth-1)
		if isBody && (err == errUnterminated || err == nil && skipSpace(p, valueEnd) == len(p)) {
			return cutBody(p, i)
		}
		if err != nil {
			return start, end, err
		}
		if isBody {
			start, end = i, valueEnd
		}
		if i = skipSpace(p, valueEnd); i == len(p) {
			return start, end, errMalformed
		}
		switch p[i] {
		case ',':
			i = skipSpace(p, i+1)
		case '}':
			return start, end, nil
		default:
			return start, end, errMalformed
		}
	}
}

// cutBody returns the span of a body that starts at p[start] and is
// still open at the end of the payload: up to the payload's final '}',
// whitespace before it trimmed.
func cutBody(p []byte, start int) (int, int, error) {
	end := len(p)
	for end > start && isSpace(p[end-1]) {
		end--
	}
	if end == start || p[end-1] != '}' {
		return -1, -1, errMalformed
	}
	for end--; end > start && isSpace(p[end-1]); end-- {
	}
	if end == start {
		return -1, -1, errMalformed
	}
	return start, end, nil
}

func skipSpace(p []byte, i int) int {
	for i < len(p) && isSpace(p[i]) {
		i++
	}
	return i
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// skipString returns the index just past the string starting at p[i],
// honouring backslash escapes without checking them.
func skipString(p []byte, i int) (int, bool) {
	if i == len(p) || p[i] != '"' {
		return 0, false
	}
	for i++; i < len(p); i++ {
		switch p[i] {
		case '\\':
			i++
		case '"':
			return i + 1, true
		}
	}
	return 0, false
}

// structural flags the bytes a loose container skip must look at.
var structural = [256]bool{'"': true, '[': true, ']': true, '{': true, '}': true}

// skipPlain returns the index of the first structural byte at or after
// i, testing eight bytes at a time: setting bit 5 maps '[' and ']' onto
// '{' and '}', and clearing bits 1 and 2 maps those onto 0x79, so a word
// holding none of them (nor '"') has no zero byte after the XORs. The few
// other bytes that also map to 0x79 are sorted out byte by byte.
func skipPlain(p []byte, i int) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for i+8 <= len(p) {
		w := binary.LittleEndian.Uint64(p[i:])
		b := (w|0x2020202020202020)&^0x0606060606060606 ^ 0x7979797979797979
		q := w ^ 0x2222222222222222
		if ((b-ones)&^b|(q-ones)&^q)&highs == 0 {
			i += 8
			continue
		}
		for end := i + 8; i < end; i++ {
			if structural[p[i]] {
				return i
			}
		}
	}
	for i < len(p) && !structural[p[i]] {
		i++
	}
	return i
}

// skipLoose returns the index just past the value starting at p[i]: a
// string, a bracketed container (brackets counted through strings, to a
// depth of at most limit) or a run of literal and number characters.
func skipLoose(p []byte, i, limit int) (int, error) {
	if i == len(p) {
		return 0, errMalformed
	}
	switch p[i] {
	case '"':
		end, ok := skipString(p, i)
		if !ok {
			return 0, errUnterminated
		}
		return end, nil
	case '{', '[':
		depth := 0
		for i = skipPlain(p, i); i < len(p); i = skipPlain(p, i) {
			switch p[i] {
			case '"':
				next, ok := skipString(p, i)
				if !ok {
					return 0, errUnterminated
				}
				i = next
				continue
			case '{', '[':
				if depth++; depth > limit {
					return 0, errMalformed
				}
			default:
				if depth--; depth == 0 {
					return i + 1, nil
				}
			}
			i++
		}
		return 0, errUnterminated
	}
	j := i
	for j < len(p) && isScalarByte(p[j]) {
		j++
	}
	if j == i {
		return 0, errMalformed
	}
	return j, nil
}

func isScalarByte(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '-' || c == '+' || c == '.'
}

// quotedKeyIs reports whether the quoted object key names the field whose
// upper-cased name is upper, under encoding/json's case-insensitive match.
func quotedKeyIs(quoted []byte, upper string) bool {
	key, ok := unquoteKey(quoted)
	return ok && foldEq(key, upper)
}

// unquoteKey returns a key's contents, unescaping through encoding/json
// only when the key holds an escape.
func unquoteKey(quoted []byte) ([]byte, bool) {
	inner := quoted[1 : len(quoted)-1]
	for _, c := range inner {
		if c == '\\' {
			var s string
			if err := json.Unmarshal(quoted, &s); err != nil {
				return nil, false
			}
			return []byte(s), true
		}
	}
	return inner, true
}

// foldEq reports whether key folds to upper, an ASCII upper-case field
// name, the way encoding/json folds keys: every rune to the smallest rune
// of its case-folding orbit, so "ſ" (U+017F) matches "S" as it does there.
func foldEq(key []byte, upper string) bool {
	n := 0
	for i := 0; i < len(key); {
		r, size := rune(key[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(key[i:])
			r = foldRune(r)
		} else if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		}
		if n == len(upper) || r != rune(upper[n]) {
			return false
		}
		n++
		i += size
	}
	return n == len(upper)
}

// foldRune returns the smallest rune of r's case-folding orbit.
func foldRune(r rune) rune {
	for {
		f := unicode.SimpleFold(r)
		if f <= r {
			return f
		}
		r = f
	}
}

// decoder is a validating one-pass JSON reader for the capture-carrying
// bodies. On every input it accepts and rejects what encoding/json does
// when unmarshalling into the same type, and stores the same values: keys
// in any order and matched case-insensitively, unknown keys validated and
// skipped, null leaving numbers and structs untouched and setting slices
// to nil, repeated keys decoding again into the same value. On error the
// destination holds whatever was decoded before it.
type decoder struct {
	data  []byte
	pos   int
	depth int
}

// decodeObjectBody decodes a whole body, one object or null surrounded by
// whitespace, handing each member to field.
func decodeObjectBody(data []byte, field func(d *decoder, key []byte) error) error {
	d := &decoder{data: data}
	d.space()
	if err := d.object(field); err != nil {
		return err
	}
	if d.space(); d.pos != len(d.data) {
		return d.syntaxError("after top-level value")
	}
	return nil
}

func (d *decoder) space() { d.pos = skipSpace(d.data, d.pos) }

// peek returns the byte at the read position, 0 at the end of input.
func (d *decoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *decoder) syntaxError(context string) error {
	if d.pos == len(d.data) {
		return fmt.Errorf("unexpected end of JSON input %s", context)
	}
	return fmt.Errorf("invalid character %q at offset %d %s", d.data[d.pos], d.pos, context)
}

// mismatch reports a value that cannot decode into want.
func (d *decoder) mismatch(want string) error {
	if d.pos == len(d.data) {
		return d.syntaxError("looking for beginning of value")
	}
	return fmt.Errorf("cannot decode JSON value starting %q at offset %d into %s", d.data[d.pos], d.pos, want)
}

// open consumes a '[' or '{' one level deeper.
func (d *decoder) open() error {
	if d.depth++; d.depth > maxNestingDepth {
		return fmt.Errorf("JSON nesting at offset %d exceeds max depth %d", d.pos, maxNestingDepth)
	}
	d.pos++
	d.space()
	return nil
}

// closes consumes the closing bracket of the current array or object
// if it is next.
func (d *decoder) closes(closing byte) bool {
	if d.peek() != closing {
		return false
	}
	d.pos++
	d.depth--
	return true
}

// next consumes the separator after a member or element: it reports
// whether another follows, or consumes the closing bracket.
func (d *decoder) next(closing byte) (bool, error) {
	d.space()
	if d.peek() == ',' {
		d.pos++
		d.space()
		return true, nil
	}
	if d.closes(closing) {
		return false, nil
	}
	if closing == ']' {
		return false, d.syntaxError("after array element")
	}
	return false, d.syntaxError("after object member")
}

func (d *decoder) literal(lit string) error {
	if len(d.data)-d.pos < len(lit) || string(d.data[d.pos:d.pos+len(lit)]) != lit {
		return d.syntaxError("in literal " + lit)
	}
	d.pos += len(lit)
	return nil
}

// object decodes an object member by member, or a null that leaves the
// destination untouched.
func (d *decoder) object(field func(d *decoder, key []byte) error) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.mismatch("object")
	}
	if err := d.open(); err != nil {
		return err
	}
	if d.closes('}') {
		return nil
	}
	for more := true; more; {
		if d.peek() != '"' {
			return d.syntaxError("looking for beginning of object key string")
		}
		start, escaped, err := d.str()
		if err != nil {
			return err
		}
		key := d.data[start+1 : d.pos-1]
		if escaped {
			key, _ = unquoteKey(d.data[start:d.pos])
		}
		if d.space(); d.peek() != ':' {
			return d.syntaxError("after object key")
		}
		d.pos++
		d.space()
		if err := field(d, key); err != nil {
			return err
		}
		if more, err = d.next('}'); err != nil {
			return err
		}
	}
	return nil
}

// str consumes a string, checking its escapes and rejecting control
// characters, and returns its start and whether it holds an escape.
func (d *decoder) str() (start int, escaped bool, err error) {
	start = d.pos
	for i := d.pos + 1; i < len(d.data); {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return start, escaped, nil
		case c == '\\':
			escaped = true
			if i+1 == len(d.data) {
				d.pos = i + 1
				return start, escaped, d.syntaxError("in string escape code")
			}
			switch d.data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				i += 2
				for k := 0; k < 4; k++ {
					if i == len(d.data) || !isHex(d.data[i]) {
						d.pos = i
						return start, escaped, d.syntaxError("in \\u hexadecimal character escape")
					}
					i++
				}
			default:
				d.pos = i + 1
				return start, escaped, d.syntaxError("in string escape code")
			}
		case c < 0x20:
			d.pos = i
			return start, escaped, d.syntaxError("in string literal")
		default:
			i++
		}
	}
	d.pos = len(d.data)
	return start, escaped, d.syntaxError("in string literal")
}

func isHex(c byte) bool { return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }

// number consumes a number in JSON's grammar and returns its text.
func (d *decoder) number() ([]byte, error) {
	p, i := d.data, d.pos
	if i < len(p) && p[i] == '-' {
		i++
	}
	switch {
	case i < len(p) && p[i] == '0':
		i++
	case i < len(p) && '1' <= p[i] && p[i] <= '9':
		for i++; i < len(p) && isDigit(p[i]); i++ {
		}
	default:
		d.pos = i
		return nil, d.syntaxError("in numeric literal")
	}
	if i < len(p) && p[i] == '.' {
		if i++; i == len(p) || !isDigit(p[i]) {
			d.pos = i
			return nil, d.syntaxError("after decimal point in numeric literal")
		}
		for i++; i < len(p) && isDigit(p[i]); i++ {
		}
	}
	if i < len(p) && (p[i] == 'e' || p[i] == 'E') {
		if i++; i < len(p) && (p[i] == '+' || p[i] == '-') {
			i++
		}
		if i == len(p) || !isDigit(p[i]) {
			d.pos = i
			return nil, d.syntaxError("in exponent of numeric literal")
		}
		for i++; i < len(p) && isDigit(p[i]); i++ {
		}
	}
	num := p[d.pos:i]
	d.pos = i
	return num, nil
}

// skip validates and consumes one value of any kind.
func (d *decoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(func(d *decoder, _ []byte) error { return d.skip() })
	case c == '[':
		if err := d.open(); err != nil {
			return err
		}
		if d.closes(']') {
			return nil
		}
		for more := true; more; {
			if err := d.skip(); err != nil {
				return err
			}
			var err error
			if more, err = d.next(']'); err != nil {
				return err
			}
		}
		return nil
	case c == '"':
		_, _, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || isDigit(c):
		_, err := d.number()
		return err
	}
	return d.syntaxError("looking for beginning of value")
}

// scalar validates one value and hands it to encoding/json, for the
// small non-float fields.
func (d *decoder) scalar(into any) error {
	start := d.pos
	if err := d.skip(); err != nil {
		return err
	}
	return json.Unmarshal(d.data[start:d.pos], into)
}

// float decodes a number into v; null leaves v untouched.
func (d *decoder) float(v *float64) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c != '-' && !isDigit(c):
		return d.mismatch("float64")
	}
	start := d.pos
	num, err := d.number()
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return fmt.Errorf("cannot decode JSON number %s at offset %d into float64: %w", num, start, err)
	}
	*v = f
	return nil
}

// maxPresize caps the capacity a number array is given before it is
// decoded, so a body of bare commas cannot make the decoder allocate far
// ahead of what it has checked; longer arrays grow from there.
const maxPresize = 1 << 16

// floats decodes a number array. An empty destination is first given
// the capacity the array's commas call for, instead of growing element
// by element: growth only copies what was already decoded, so the
// values are the same either way.
func (d *decoder) floats(v *[]float64) error {
	if cap(*v) == 0 && d.peek() == '[' {
		if n := bytes.IndexByte(d.data[d.pos:], ']'); n > 0 {
			*v = make([]float64, 0, min(bytes.Count(d.data[d.pos:d.pos+n], []byte{','})+1, maxPresize))
		}
	}
	return decodeSlice(d, v, (*decoder).float)
}

func (d *decoder) floats2(v *[][]float64) error { return decodeSlice(d, v, (*decoder).floats) }

// decodeSlice decodes an array into *dst element by element, reusing its
// storage the way encoding/json does: elements already within the
// slice's capacity are decoded into in place, the slice grows as append
// grows it, and an empty array leaves a non-nil empty slice. null sets
// *dst to nil.
func decodeSlice[T any](d *decoder, dst *[]T, elem func(*decoder, *T) error) error {
	switch d.peek() {
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		*dst = nil
		return nil
	case '[':
	default:
		return d.mismatch("slice")
	}
	if err := d.open(); err != nil {
		return err
	}
	s, n := *dst, 0
	if !d.closes(']') {
		for more := true; more; {
			if n == len(s) {
				if n < cap(s) {
					s = s[:n+1]
				} else {
					var zero T
					s = append(s, zero)
				}
			}
			if err := elem(d, &s[n]); err != nil {
				return err
			}
			n++
			var err error
			if more, err = d.next(']'); err != nil {
				return err
			}
		}
	}
	if n == 0 {
		s = []T{}
	}
	*dst = s[:n]
	return nil
}

// captureFields returns the member decoder of a capture-carrying body,
// or nil for any other destination (nil pointers included), which
// DecodeBody leaves to encoding/json.
func captureFields(into any) func(d *decoder, key []byte) error {
	switch v := into.(type) {
	case *AuthRequest:
		if v != nil {
			return v.decodeField
		}
	case *EnrollRequest:
		if v != nil {
			return v.decodeField
		}
	}
	return nil
}

func (c *CaptureWire) decodeField(d *decoder, key []byte) error {
	switch {
	case foldEq(key, "BEEPS"):
		return decodeSlice(d, &c.Beeps, (*decoder).floats2)
	case foldEq(key, "SAMPLE_RATE"):
		return d.float(&c.SampleRate)
	case foldEq(key, "NOISE_ONLY"):
		return d.floats2(&c.NoiseOnly)
	case foldEq(key, "REFERENCE"):
		return d.floats2(&c.Reference)
	}
	return d.skip()
}

func (r *AuthRequest) decodeField(d *decoder, key []byte) error {
	if foldEq(key, "CAPTURE") {
		return d.object(r.Capture.decodeField)
	}
	return d.skip()
}

func (r *EnrollRequest) decodeField(d *decoder, key []byte) error {
	switch {
	case foldEq(key, "USER_ID"):
		return d.scalar(&r.UserID)
	case foldEq(key, "CAPTURE"):
		return d.object(r.Capture.decodeField)
	case foldEq(key, "RETRAIN"):
		return d.scalar(&r.Retrain)
	}
	return d.skip()
}
