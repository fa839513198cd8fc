#include "trace/csv_trace.h"

#include <fstream>
#include <stdexcept>

#include "util/csv.h"
#include "util/fmt.h"

namespace pr {

namespace {
constexpr const char* kHeader = "time_s,file_id,bytes,op";
}

void write_csv_trace(const Trace& trace, std::ostream& out) {
  TraceSource source(trace);
  write_csv_trace(source, out);
}

void write_csv_trace(RequestSource& source, std::ostream& out) {
  out << kHeader << "\n";
  // Every field goes through util/fmt, so the caller's stream locale is
  // never consulted (nor changed); precision 9 for arrivals matches the
  // stream precision the format was defined with.
  std::string row;
  Request r;
  while (source.next(r)) {
    row.clear();
    append_double(row, r.arrival.value(), 9);
    row += ',';
    append_uint(row, r.file);
    row += ',';
    append_uint(row, r.size);
    row += r.kind == RequestKind::kRead ? ",R\n" : ",W\n";
    out.write(row.data(), static_cast<std::streamsize>(row.size()));
  }
}

void write_csv_trace_file(const Trace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("write_csv_trace_file: cannot open " + path);
  write_csv_trace(trace, out);
  if (!out) throw std::runtime_error("write_csv_trace_file: write failed " + path);
}

Trace read_csv_trace(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error("read_csv_trace: empty input");
  }
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line != kHeader) {
    throw std::runtime_error("read_csv_trace: bad header '" + line +
                             "', expected '" + kHeader + "'");
  }
  Trace trace;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line == "\r") continue;
    const auto fields = split_csv_line(line);
    if (fields.size() != 4) {
      throw std::runtime_error("read_csv_trace: line " +
                               std::to_string(line_no) + ": expected 4 fields");
    }
    Request r;
    try {
      r.arrival = Seconds{parse_double(fields[0])};
      r.file = static_cast<FileId>(std::stoul(fields[1]));
      r.size = static_cast<Bytes>(std::stoull(fields[2]));
    } catch (const std::exception&) {
      throw std::runtime_error("read_csv_trace: line " +
                               std::to_string(line_no) + ": parse error");
    }
    if (fields[3] == "R") {
      r.kind = RequestKind::kRead;
    } else if (fields[3] == "W") {
      r.kind = RequestKind::kWrite;
    } else {
      throw std::runtime_error("read_csv_trace: line " +
                               std::to_string(line_no) + ": bad op '" +
                               fields[3] + "'");
    }
    if (!trace.requests.empty() && r.arrival < trace.requests.back().arrival) {
      throw std::runtime_error("read_csv_trace: line " +
                               std::to_string(line_no) +
                               ": arrivals not sorted");
    }
    trace.requests.push_back(r);
  }
  return trace;
}

Trace read_csv_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("read_csv_trace_file: cannot open " + path);
  return read_csv_trace(in);
}

}  // namespace pr
