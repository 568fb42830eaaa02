package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"unicode/utf8"

	"ldl1"
	"ldl1/internal/bufpool"
	"ldl1/internal/term"
)

// decode unmarshals a JSON request body of at most 16 MiB into v, tolerating
// an empty body (all-default request).  On failure it writes the error
// response and reports false.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	p := bufpool.Get()
	defer bufpool.Put(p)
	err := bufpool.ReadFrom(p, http.MaxBytesReader(nil, r.Body, 16<<20))
	if err == nil && len(*p) > 0 {
		err = json.Unmarshal(*p, v)
	}
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeErrorInfo(w, http.StatusRequestEntityTooLarge,
			ErrorInfo{Code: "request_too_large", Message: err.Error(), Limit: int(tooLarge.Limit)})
	case err != nil:
		errBadRequest(w, err.Error())
	}
	return err == nil
}

// writeAnswers sends the answer table a as the response body.
func writeAnswers(w http.ResponseWriter, a *ldl1.Answers) {
	out, text := bufpool.Get(), bufpool.Get()
	*out, *text = appendAnswers(*out, *text, a)
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(*out)
	bufpool.Put(out)
	bufpool.Put(text)
}

// appendAnswers renders a onto dst as {"vars": [...], "rows": [[...], ...],
// "count": n} -- byte for byte what json.Encoder writes for that object with
// every term as its LDL1 text and an unbound column as "_".  text is scratch
// space for one term's text; both slices are returned for reuse.  a.Vars is
// never nil (the encoder would write null).
func appendAnswers(dst, text []byte, a *ldl1.Answers) ([]byte, []byte) {
	dst = append(dst, `{"vars":[`...)
	for i, v := range a.Vars {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, v)
	}
	dst = append(dst, `],"rows":[`...)
	for i, row := range a.Rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j, t := range row {
			if j > 0 {
				dst = append(dst, ',')
			}
			if t == nil {
				dst = append(dst, `"_"`...)
				continue
			}
			text = term.AppendText(text[:0], t)
			dst = appendJSONString(dst, text)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `],"count":`...)
	dst = strconv.AppendInt(dst, int64(len(a.Rows)), 10)
	return append(dst, "}\n"...), text
}

// appendJSONString appends s as a JSON string escaped as encoding/json
// escapes it with HTML escaping on: '"' and '\\' behind a backslash; \b, \f,
// \n, \r, \t by name; other control bytes, '<', '>' and '&' as \u00XX; a
// byte that is not valid UTF-8 as \ufffd; U+2028 and U+2029 as \u202X.
func appendJSONString[S string | []byte](dst []byte, s S) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b < ' ' || b == '"' || b == '\\' || b == '<' || b == '>' || b == '&' {
				dst = append(dst, s[start:i]...)
				switch b {
				case '"', '\\':
					dst = append(dst, '\\', b)
				case '\b', '\f', '\n', '\r', '\t':
					dst = append(dst, '\\', "bfnrt"[strings.IndexByte("\b\f\n\r\t", b)])
				default:
					dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
				}
				start = i + 1
			}
			i++
			continue
		}
		c, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
			start = i + size
		case c == 0x2028 || c == 0x2029:
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
			start = i + size
		}
		i += size
	}
	return append(append(dst, s[start:]...), '"')
}
