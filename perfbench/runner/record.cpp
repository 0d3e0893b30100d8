#include "record.hpp"

namespace perfbench {
namespace {

void WriteString(std::FILE* out, const std::string& s) {
  std::fputc('"', out);
  for (char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', out);
    std::fputc(c, out);
  }
  std::fputc('"', out);
}

void WriteArray(std::FILE* out, const char* key,
                const std::vector<double>& values) {
  std::fprintf(out, "\"%s\":[", key);
  for (size_t i = 0; i < values.size(); ++i) {
    std::fprintf(out, "%s%.17g", i == 0 ? "" : ",", values[i]);
  }
  std::fputs("],", out);
}

}  // namespace

void WriteJson(const RunRecord& run, const std::string& workload,
               unsigned long seed, double peak_rss_mb, std::FILE* out) {
  std::fputs("{\"workload\":", out);
  WriteString(out, workload);
  std::fprintf(out, ",\"seed\":%lu,\"peak_rss_mb\":%.17g,", seed, peak_rss_mb);
  WriteArray(out, "setup_s", run.setup_s);
  WriteArray(out, "op_ms", run.op_ms);
  WriteArray(out, "schema_ms", run.schema_ms);
  WriteArray(out, "untraced_op_ms", run.untraced_op_ms);
  std::fprintf(out, "\"row_ops\":%.17g,\"attempted\":%ld,\"failed\":%ld,",
               run.row_ops, run.attempted, run.failed);
  std::fputs("\"counts\":{", out);
  bool first = true;
  for (const auto& [name, value] : run.counts) {
    if (!first) std::fputc(',', out);
    first = false;
    WriteString(out, name);
    std::fprintf(out, ":%.17g", value);
  }
  std::fputs("},\"blocking\":[", out);
  for (size_t i = 0; i < run.blocking.size(); ++i) {
    if (i > 0) std::fputc(',', out);
    WriteString(out, run.blocking[i]);
  }
  std::fputs("],\"spans\":[", out);
  const std::vector<SpanRecord>& spans = run.spans.records();
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) std::fputc(',', out);
    std::fputs("[", out);
    WriteString(out, spans[i].name);
    std::fprintf(out, ",%d,%.6f,%.6f]", spans[i].parent, spans[i].start_ms,
                 spans[i].dur_ms);
  }
  std::fputs("]}\n", out);
  std::fflush(out);
}

}  // namespace perfbench
