#include "trace/stream_reader.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <ostream>
#include <stdexcept>

#include "util/contracts.h"
#include "util/csv.h"
#include "util/fmt.h"
#include "util/parse.h"

namespace pr {

namespace {

constexpr const char* kCsvHeader = "time_s,file_id,bytes,op";
/// Refill granularity; the effective chunk shrinks near the buffer bound.
constexpr std::size_t kReadChunk = 64 * 1024;

/// Fast-path field scanners: the same accept-set as util/parse.h
/// (from_chars over the full token, finite doubles) minus the throwing
/// diagnostics — a false return routes the line to the slow path.
bool scan_double(std::string_view field, double& value) {
  const char* last = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), last, value);
  return ec == std::errc{} && ptr == last && !field.empty() &&
         std::isfinite(value);
}

bool scan_u64(std::string_view field, std::uint64_t& value) {
  const char* last = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), last, value);
  return ec == std::errc{} && ptr == last && !field.empty();
}

std::string_view trim_ws(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

LineStreamSource::LineStreamSource(std::istream& in, std::string source,
                                   StreamReaderOptions options)
    : in_(&in), source_(std::move(source)), options_(options) {
  if (options_.buffer_bytes == 0) {
    throw std::invalid_argument("stream_reader: buffer_bytes == 0");
  }
}

LineStreamSource::LineStreamSource(const std::string& path,
                                   StreamReaderOptions options)
    : owned_(path, std::ios::binary), in_(&owned_), source_(path),
      options_(options) {
  if (!owned_) {
    throw std::runtime_error("stream_reader: cannot open " + path);
  }
  if (options_.buffer_bytes == 0) {
    throw std::invalid_argument("stream_reader: buffer_bytes == 0");
  }
}

void LineStreamSource::fail(const std::string& message) const {
  throw std::invalid_argument(source_ + ":" + std::to_string(line_no_) +
                              ": " + message);
}

void LineStreamSource::check_sorted(Seconds arrival) {
  if (have_last_ && arrival < last_arrival_) fail("arrivals not sorted");
  last_arrival_ = arrival;
  have_last_ = true;
}

void LineStreamSource::refill() {
  // Compact the delivered prefix in one move per refill (amortized O(1)
  // per byte) instead of erasing it per line.
  if (consumed_ > 0) {
    buffer_.erase(0, consumed_);
    scan_from_ -= consumed_;
    consumed_ = 0;
  }
  const std::size_t room = options_.buffer_bytes - buffer_.size();
  const std::size_t chunk = std::min(room, kReadChunk);
  const std::size_t old = buffer_.size();
  buffer_.resize(old + chunk);
  in_->read(buffer_.data() + old,
            static_cast<std::streamsize>(chunk));
  const auto got = static_cast<std::size_t>(in_->gcount());
  buffer_.resize(old + got);
  if (in_->bad()) {
    throw std::runtime_error(source_ + ": read error");
  }
  if (got == 0) exhausted_ = true;
  // The bound is the reader's whole memory contract; a violation here
  // means the framing logic is broken, not that the input is bad.
  PR_INVARIANT(buffer_.size() <= options_.buffer_bytes,
               "stream reader buffered more bytes than the configured bound");
  high_water_ = std::max(high_water_, buffer_.size());
}

bool LineStreamSource::next_line(std::string_view& line) {
  for (;;) {
    const std::size_t nl = buffer_.find('\n', scan_from_);
    if (nl != std::string::npos) {
      line = std::string_view(buffer_).substr(consumed_, nl - consumed_);
      consumed_ = nl + 1;
      scan_from_ = consumed_;
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      ++line_no_;
      return true;
    }
    scan_from_ = buffer_.size();
    if (exhausted_) {
      if (consumed_ >= buffer_.size()) return false;
      // Bytes after the final newline: a truncated/garbled tail must be
      // an error, not a silently dropped request.
      ++line_no_;
      fail("truncated line at end of stream (missing trailing newline)");
    }
    if (buffer_.size() - consumed_ >= options_.buffer_bytes) {
      ++line_no_;
      fail("line exceeds the " + std::to_string(options_.buffer_bytes) +
           "-byte buffer bound");
    }
    refill();
  }
}

bool LineStreamSource::poll(Request& out) {
  std::string_view line;
  while (next_line(line)) {
    if (parse_line(line, out)) return true;
  }
  return false;
}

// ------------------------------------------------------------------ CSV

CsvStreamSource::CsvStreamSource(std::istream& in, std::string source,
                                 StreamReaderOptions options)
    : LineStreamSource(in, std::move(source), options) {
  consume_header();
}

CsvStreamSource::CsvStreamSource(const std::string& path,
                                 StreamReaderOptions options)
    : LineStreamSource(path, options) {
  consume_header();
}

void CsvStreamSource::consume_header() {
  std::string_view line;
  if (!next_line(line)) {
    throw std::invalid_argument(describe() + ":1: empty input, expected '" +
                                std::string(kCsvHeader) + "' header");
  }
  if (line != kCsvHeader) {
    fail("bad header '" + std::string(line) + "', expected '" + kCsvHeader +
         "'");
  }
}

bool CsvStreamSource::parse_line(std::string_view line, Request& out) {
  if (line.empty()) return false;  // blank separator, same as the batch reader
  // Single-pass fast path for the machine-written row shape
  // `<number>,<digits>,<digits>,<R|W>` that csv_trace.h emits: three comma
  // cuts and in-place from_chars, zero allocations. The scanners accept
  // exactly what util/parse.h accepts (full token, finite, no sign/space
  // slack), so any line the fast path takes parses identically; anything
  // else — quoting, padding, malformed fields — falls through to the
  // historical split-and-throw path, which owns the exact error messages.
  const std::size_t c1 = line.find(',');
  const std::size_t c2 =
      c1 == std::string_view::npos ? c1 : line.find(',', c1 + 1);
  const std::size_t c3 =
      c2 == std::string_view::npos ? c2 : line.find(',', c2 + 1);
  if (c3 != std::string_view::npos &&
      line.find(',', c3 + 1) == std::string_view::npos &&
      line.find('"') == std::string_view::npos) {
    const std::string_view op = line.substr(c3 + 1);
    double arrival = 0.0;
    std::uint64_t file = 0;
    std::uint64_t bytes = 0;
    if ((op == "R" || op == "W") && scan_double(line.substr(0, c1), arrival) &&
        scan_u64(line.substr(c1 + 1, c2 - c1 - 1), file) &&
        scan_u64(line.substr(c2 + 1, c3 - c2 - 1), bytes) &&
        file < kInvalidFile) {
      Request r;
      r.arrival = Seconds{arrival};
      r.file = static_cast<FileId>(file);
      r.size = bytes;
      r.kind = op == "R" ? RequestKind::kRead : RequestKind::kWrite;
      check_sorted(r.arrival);
      out = r;
      return true;
    }
  }
  const auto fields = split_csv_line(line);
  if (fields.size() != 4) {
    fail("expected 4 fields (time_s,file_id,bytes,op), got " +
         std::to_string(fields.size()));
  }
  Request r;
  std::uint64_t file = 0;
  try {
    r.arrival = Seconds{pr::parse_double(fields[0], "time_s")};
    file = parse_u64(fields[1], "file_id");
    r.size = parse_u64(fields[2], "bytes");
  } catch (const std::invalid_argument& e) {
    fail(e.what());
  }
  if (file >= kInvalidFile) fail("file_id out of range");
  r.file = static_cast<FileId>(file);
  if (fields[3] == "R") {
    r.kind = RequestKind::kRead;
  } else if (fields[3] == "W") {
    r.kind = RequestKind::kWrite;
  } else {
    fail("bad op '" + fields[3] + "', expected R or W");
  }
  check_sorted(r.arrival);
  out = r;
  return true;
}

// ---------------------------------------------------------------- JSONL

JsonlStreamSource::JsonlStreamSource(std::istream& in, std::string source,
                                     StreamReaderOptions options)
    : LineStreamSource(in, std::move(source), options) {}

JsonlStreamSource::JsonlStreamSource(const std::string& path,
                                     StreamReaderOptions options)
    : LineStreamSource(path, options) {}

bool JsonlStreamSource::parse_line(std::string_view line, Request& out) {
  std::string_view body = trim_ws(line);
  if (body.empty()) return false;
  if (body.front() != '{' || body.back() != '}') {
    fail("expected a JSON object");
  }
  body = trim_ws(body.substr(1, body.size() - 2));

  Request r;
  bool have_t = false;
  bool have_file = false;
  bool have_bytes = false;
  // The schema's values are numbers and one-character strings, so a flat
  // comma split is an exact tokenizer for well-formed lines (and malformed
  // ones fail the per-pair checks below).
  std::size_t start = 0;
  while (start <= body.size()) {
    std::size_t comma = body.find(',', start);
    if (comma == std::string_view::npos) comma = body.size();
    const std::string_view pair =
        trim_ws(body.substr(start, comma - start));
    start = comma + 1;
    if (pair.empty()) {
      if (body.empty()) break;
      fail("empty key/value pair");
    }
    const std::size_t colon = pair.find(':');
    if (colon == std::string_view::npos) fail("expected \"key\":value");
    std::string_view key = trim_ws(pair.substr(0, colon));
    const std::string_view value = trim_ws(pair.substr(colon + 1));
    if (key.size() < 2 || key.front() != '"' || key.back() != '"') {
      fail("expected a quoted key");
    }
    key = key.substr(1, key.size() - 2);
    try {
      if (key == "t") {
        r.arrival = Seconds{pr::parse_double(value, "t")};
        have_t = true;
      } else if (key == "file") {
        const std::uint64_t file = parse_u64(value, "file");
        if (file >= kInvalidFile) fail("file out of range");
        r.file = static_cast<FileId>(file);
        have_file = true;
      } else if (key == "bytes") {
        r.size = parse_u64(value, "bytes");
        have_bytes = true;
      } else if (key == "op") {
        if (value == "\"R\"") {
          r.kind = RequestKind::kRead;
        } else if (value == "\"W\"") {
          r.kind = RequestKind::kWrite;
        } else {
          fail("bad op " + std::string(value) +
               ", expected \"R\" or \"W\"");
        }
      } else {
        fail("unknown key '" + std::string(key) +
             "'; valid: t, file, bytes, op");
      }
    } catch (const std::invalid_argument& e) {
      // Wrap bare value-parse errors (util/parse.h) with file:line
      // context; fail() messages already carry it.
      const std::string prefix = describe() + ":";
      if (std::string_view(e.what()).rfind(prefix, 0) == 0) throw;
      fail(e.what());
    }
  }
  if (!have_t) fail("missing key \"t\"");
  if (!have_file) fail("missing key \"file\"");
  if (!have_bytes) fail("missing key \"bytes\"");
  check_sorted(r.arrival);
  out = r;
  return true;
}

void write_jsonl_trace(const Trace& trace, std::ostream& out) {
  // Every field goes through util/fmt, so the caller's stream locale is
  // never consulted (nor changed).
  std::string line;
  for (const auto& r : trace.requests) {
    line = "{\"t\":";
    append_double(line, r.arrival.value());
    line += ",\"file\":";
    append_uint(line, r.file);
    line += ",\"bytes\":";
    append_uint(line, r.size);
    line += r.kind == RequestKind::kRead ? ",\"op\":\"R\"}\n"
                                         : ",\"op\":\"W\"}\n";
    out.write(line.data(), static_cast<std::streamsize>(line.size()));
  }
}

void write_jsonl_trace_file(const Trace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("write_jsonl_trace_file: cannot open " + path);
  }
  write_jsonl_trace(trace, out);
  if (!out) {
    throw std::runtime_error("write_jsonl_trace_file: write failed " + path);
  }
}

}  // namespace pr
