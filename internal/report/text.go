package report

import (
	"strconv"
	"unicode/utf8"
)

// The renderers append every table row into one byte slice. These
// helpers are the fmt verbs they replace; width follows fmt's
// convention — positive right-justifies (%10s), negative
// left-justifies (%-24s), 0 does not pad — and is counted in runes,
// as fmt counts it.

// pad justifies the field b[start:] to width.
func pad(b []byte, start, width int) []byte {
	left := width < 0
	if left {
		width = -width
	}
	n := width - utf8.RuneCount(b[start:])
	if n <= 0 {
		return b
	}
	end := len(b)
	b = appendSpaces(b, n)
	if !left {
		copy(b[start+n:], b[start:end])
		for i := start; i < start+n; i++ {
			b[i] = ' '
		}
	}
	return b
}

const spaces = "                                "

func appendSpaces(b []byte, n int) []byte {
	for ; n > len(spaces); n -= len(spaces) {
		b = append(b, spaces...)
	}
	return append(b, spaces[:n]...)
}

// appendStr appends s as fmt's %*s does.
func appendStr(b []byte, s string, width int) []byte {
	start := len(b)
	return pad(append(b, s...), start, width)
}

// appendUint appends v as fmt's %*d does.
func appendUint(b []byte, v uint64, width int) []byte {
	start := len(b)
	return pad(strconv.AppendUint(b, v, 10), start, width)
}

// appendInt appends v as fmt's %*d does.
func appendInt(b []byte, v int64, width int) []byte {
	start := len(b)
	return pad(strconv.AppendInt(b, v, 10), start, width)
}

// appendFloat appends v as fmt's %*.*f does, NaN and ±Inf included.
func appendFloat(b []byte, v float64, prec, width int) []byte {
	start := len(b)
	return pad(strconv.AppendFloat(b, v, 'f', prec, 64), start, width)
}

// appendCount appends an execution count as a %*s column, prefixed '~'
// when the count is a tiered-mode extrapolation rather than a
// measurement. Exact counts render exactly as a plain %*d.
func appendCount(b []byte, v uint64, estimated bool, width int) []byte {
	start := len(b)
	if estimated {
		b = append(b, '~')
	}
	return pad(strconv.AppendUint(b, v, 10), start, width)
}

// header renders a table header: each name justified to its width, the
// names separated by one space and ended by a newline.
func header(widths []int, names ...string) string {
	var b []byte
	for i, name := range names {
		if i > 0 {
			b = append(b, ' ')
		}
		b = appendStr(b, name, widths[i])
	}
	return string(append(b, '\n'))
}
