package server

// The v1 codec: /v1/serve and /v1/serve/batch carry one fixed shape each
// way, so they parse and render it directly instead of through
// encoding/json's reflection. Parity with encoding/json is the contract:
// decodeServeRequest accepts exactly the values a json.Decoder with
// DisallowUnknownFields decodes into a ServeRequest without error, and
// stores the same fields; appendServeResponse writes the bytes
// json.Encoder writes for a ServeResponse. codec_test.go fuzzes both
// against encoding/json itself.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"sushi/internal/serving"
)

// The request's keys, by field index.
const (
	fModel = iota
	fClass
	fMinAccuracy
	fMaxLatencyMS
	fDeadlineMS
	fPolicy
)

var fieldNames = [...]string{"model", "class", "min_accuracy", "max_latency_ms", "deadline_ms", "policy"}

// policyNames are the names ParsePolicy knows, shared into decoded
// requests so a policy field costs no allocation (a name missing here
// costs only that).
var policyNames = []string{"acc", "lat", "energy", "accuracy", "latency",
	"strict_accuracy", "strict_latency", "min_energy"}

func badJSON(off int, what string) error {
	return fmt.Errorf("invalid JSON at offset %d: %s", off, what)
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// decodeServeRequest decodes the JSON value starting at b[i:] into req
// and returns the offset just past it; io.EOF when only whitespace is
// left. A value is an object of the six request keys (matched exactly,
// then by Unicode case folding; a duplicate key overwrites) or null,
// which stores nothing, as does a null field. Anything else (a syntax
// error, an unknown key, a value of the wrong type, a number outside
// float64) is an error. String values equal to one of models (or to a
// policy name) share that string instead of allocating their own.
func decodeServeRequest(b []byte, i int, req *ServeRequest, models []string) (int, error) {
	i = skipSpace(b, i)
	if i == len(b) {
		return i, io.EOF
	}
	if bytes.HasPrefix(b[i:], []byte("null")) {
		return i + 4, nil
	}
	if b[i] != '{' {
		return i, badJSON(i, "want an object")
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return i + 1, nil
	}
	var scratch [64]byte
	for {
		key, next, err := scanString(b, i, scratch[:0])
		if err != nil {
			return i, err
		}
		f := fieldOf(key)
		if f < 0 {
			return i, fmt.Errorf("unknown field %q", string(key))
		}
		i = skipSpace(b, next)
		if i == len(b) || b[i] != ':' {
			return i, badJSON(i, "want ':' after the key")
		}
		i = skipSpace(b, i+1)
		switch {
		case bytes.HasPrefix(b[i:], []byte("null")):
			i += 4
		case f == fModel:
			req.Model, i, err = scanShared(b, i, scratch[:0], models)
		case f == fClass:
			req.Class, i, err = scanShared(b, i, scratch[:0], nil)
		case f == fPolicy:
			req.Policy, i, err = scanShared(b, i, scratch[:0], policyNames)
		case f == fMinAccuracy:
			req.MinAccuracy, i, err = scanNumber(b, i)
		case f == fMaxLatencyMS:
			req.MaxLatencyMS, i, err = scanNumber(b, i)
		default:
			req.DeadlineMS, i, err = scanNumber(b, i)
		}
		if err != nil {
			return i, err
		}
		i = skipSpace(b, i)
		if i == len(b) {
			return i, badJSON(i, "unexpected end of input")
		}
		if b[i] == '}' {
			return i + 1, nil
		}
		if b[i] != ',' {
			return i, badJSON(i, "want ',' or '}' after the value")
		}
		i = skipSpace(b, i+1)
	}
}

// fieldOf resolves an unquoted key to its field index, -1 if unknown.
func fieldOf(key []byte) int {
	for f, name := range fieldNames {
		if string(key) == name {
			return f
		}
	}
	for f, name := range fieldNames {
		if bytes.EqualFold(key, []byte(name)) {
			return f
		}
	}
	return -1
}

// scanShared parses the JSON string starting at b[i] into a Go string:
// the member of names it equals, if any, else a new one.
func scanShared(b []byte, i int, buf []byte, names []string) (string, int, error) {
	raw, next, err := scanString(b, i, buf)
	if err != nil {
		return "", i, err
	}
	for _, name := range names {
		if string(raw) == name {
			return name, next, nil
		}
	}
	return string(raw), next, nil
}

// scanString parses the JSON string starting at b[i] and returns its
// value and the offset past the closing quote. The value is a sub-slice
// of b when the string is plain ASCII without escapes, else it is
// unquoted into buf.
func scanString(b []byte, i int, buf []byte) ([]byte, int, error) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, badJSON(i, "want a string")
	}
	start, plain := i+1, true
	for i = start; ; i++ {
		if i >= len(b) {
			return nil, i, badJSON(i, "unexpected end of input in a string")
		}
		c := b[i]
		if c == '"' {
			break
		}
		if c < ' ' {
			return nil, i, badJSON(i, "control character in a string")
		}
		if c < utf8.RuneSelf && c != '\\' {
			continue
		}
		plain = false
		if c != '\\' {
			continue
		}
		if i++; i >= len(b) {
			return nil, i, badJSON(i, "unexpected end of input in a string")
		}
		switch b[i] {
		case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		case 'u':
			if hex4(b, i+1) < 0 {
				return nil, i, badJSON(i, `want four hex digits after \u`)
			}
			i += 4
		default:
			return nil, i, badJSON(i, "unknown escape in a string")
		}
	}
	if plain {
		return b[start:i], i + 1, nil
	}
	return unquote(buf, b[start:i]), i + 1, nil
}

// hex4 reads four hex digits at s[i:], -1 if they are not there.
func hex4(s []byte, i int) rune {
	if i+4 > len(s) {
		return -1
	}
	v, err := strconv.ParseUint(string(s[i:i+4]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(v)
}

// The single-letter escapes and the bytes they stand for.
const (
	escapeLetters = "bfnrt"
	escapeBytes   = "\b\f\n\r\t"
)

// unquote appends the value of the string body s, whose escapes
// scanString has validated. Invalid UTF-8 and surrogate escapes that do
// not form a pair become U+FFFD.
func unquote(dst, s []byte) []byte {
	for r := 0; r < len(s); {
		c := s[r]
		if c >= utf8.RuneSelf {
			rr, size := utf8.DecodeRune(s[r:])
			dst = utf8.AppendRune(dst, rr)
			r += size
			continue
		}
		if r++; c != '\\' {
			dst = append(dst, c)
			continue
		}
		c = s[r]
		r++
		if k := strings.IndexByte(escapeLetters, c); k >= 0 {
			c = escapeBytes[k]
		}
		if c == 'u' {
			rr := hex4(s, r)
			r += 4
			if utf16.IsSurrogate(rr) {
				lo := rune(-1)
				if r+2 <= len(s) && s[r] == '\\' && s[r+1] == 'u' {
					lo = hex4(s, r+2)
				}
				if rr = utf16.DecodeRune(rr, lo); rr != unicode.ReplacementChar {
					r += 6
				}
			}
			dst = utf8.AppendRune(dst, rr)
			continue
		}
		dst = append(dst, c)
	}
	return dst
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// scanNumber parses the JSON number starting at b[i]: JSON's grammar,
// which is narrower than ParseFloat's, then ParseFloat for the value.
func scanNumber(b []byte, i int) (float64, int, error) {
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		return 0, i, badJSON(i, "want a number")
	}
	if i < len(b) && b[i] == '.' {
		end := skipDigits(b, i+1)
		if end == i+1 {
			return 0, end, badJSON(end, "want a digit after the decimal point")
		}
		i = end
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		end := skipDigits(b, i)
		if end == i {
			return 0, end, badJSON(end, "want a digit in the exponent")
		}
		i = end
	}
	v, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return 0, start, fmt.Errorf("number at offset %d: %w", start, err)
	}
	return v, i, nil
}

// appendServeResponse appends one reply line, byte for byte what
// json.Encoder writes for serveResponse(id, *res), newline included.
// Like it, a NaN or infinite float is an error. m renders the floats.
func appendServeResponse(dst []byte, m *floatMemo, id int, res *serving.Served) ([]byte, error) {
	latencyMS := res.Latency * 1e3
	for _, f := range [...]float64{res.Accuracy, latencyMS, res.HitRatio} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return dst, fmt.Errorf("reply %d: unsupported value %v", id, f)
		}
	}
	dst = strconv.AppendInt(append(dst, `{"id":`...), int64(id), 10)
	if res.Query.Model != "" {
		dst = appendString(append(dst, `,"model":`...), res.Query.Model)
	}
	dst = appendString(append(dst, `,"subnet":`...), res.SubNet)
	dst = m.appendFloat(append(dst, `,"accuracy":`...), res.Accuracy)
	dst = m.appendFloat(append(dst, `,"latency_ms":`...), latencyMS)
	dst = strconv.AppendBool(append(dst, `,"feasible":`...), res.Feasible)
	dst = strconv.AppendBool(append(dst, `,"latency_met":`...), res.LatencyMet)
	dst = strconv.AppendBool(append(dst, `,"accuracy_met":`...), res.AccuracyMet)
	dst = m.appendFloat(append(dst, `,"hit_ratio":`...), res.HitRatio)
	dst = strconv.AppendBool(append(dst, `,"cache_swapped":`...), res.CacheSwapped)
	return append(dst, '}', '\n'), nil
}

// floatMemo is a direct-mapped memo of appendFloat's output, keyed by
// all 64 bits of the value, so a hit copies exactly what a miss wrote.
// Reply numbers are SushiAbs table cells and hit ratios, a few hundred
// values a fleet repeats, so nearly every one hits. Each 32-byte slot
// holds n bytes of text for the value with bits, or nothing while n is
// 0, so the zero value is empty.
type floatMemo [1 << memoBits]struct {
	bits uint64
	n    uint8
	text [23]byte
}

const memoBits = 10

// memoSlot picks a value's slot by Fibonacci hashing of its bits less
// the sign, which reply values never set: x and -x share a slot.
func memoSlot(bits uint64) uint64 { return (bits << 1) * 0x9e3779b97f4a7c15 >> (64 - memoBits) }

// appendFloat is appendFloat through the memo. A rendering longer than a
// slot is written but not kept.
func (m *floatMemo) appendFloat(dst []byte, f float64) []byte {
	bits := math.Float64bits(f)
	s := &m[memoSlot(bits)]
	if s.n != 0 && s.bits == bits {
		return append(dst, s.text[:s.n]...)
	}
	start := len(dst)
	dst = appendFloat(dst, f)
	if n := len(dst) - start; n <= len(s.text) {
		s.bits, s.n = bits, uint8(n)
		copy(s.text[:], dst[start:])
	}
	return dst
}

// appendFloat writes a finite float64 the way encoding/json does:
// ES6-style, exponent form only below 1e-6 and from 1e21.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	// e-09 becomes e-9.
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString writes s as a JSON string with encoding/json's default
// escaping: quote, backslash and control characters, the HTML-sensitive
// <, > and &, U+2028 and U+2029, and the six characters of a U+FFFD
// escape for each invalid UTF-8 byte.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				dst = append(append(dst, s[start:i]...), '\\', 'u', 'f', 'f', 'f', 'd')
				start = i + size
			case r == 0x2028 || r == 0x2029:
				dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
				start = i + size
			}
			i += size
			continue
		}
		i++
		if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			continue
		}
		dst = append(dst, s[start:i-1]...)
		start = i
		if k := strings.IndexByte(escapeBytes, c); k >= 0 {
			dst = append(dst, '\\', escapeLetters[k])
		} else if c == '"' || c == '\\' {
			dst = append(dst, '\\', c)
		} else {
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
		}
	}
	return append(append(dst, s[start:]...), '"')
}
