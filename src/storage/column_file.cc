#include "storage/column_file.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>

#include "common/hash.h"
#include "storage/mmap_file.h"

namespace robustqp {
namespace {

// ---------------------------------------------------------------------------
// Wire primitives
// ---------------------------------------------------------------------------

constexpr char kHeadMagic[8] = {'R', 'Q', 'P', 'C', 'O', 'L', 'F', '1'};
constexpr char kTailMagic[8] = {'R', 'Q', 'P', 'C', 'O', 'L', 'F', 'T'};
constexpr uint32_t kFormatVersion = 1;
constexpr size_t kTailBytes = 32;  // footer_off, footer_len, fnv, magic

/// Little-endian append-only byte buffer for the footer blob.
class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    U64(b);
  }
  void Str(const std::string& s) {
    U64(s.size());
    buf_.append(s);
  }
  const std::string& data() const { return buf_; }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian cursor over the footer blob. Every getter
/// returns false on overrun and the parse surfaces a clean Status — no
/// read past the blob regardless of the bytes' contents.
class Cursor {
 public:
  Cursor(const uint8_t* p, size_t n) : p_(p), n_(n) {}

  bool U8(uint8_t* v) {
    if (off_ + 1 > n_) return false;
    *v = p_[off_++];
    return true;
  }
  bool U32(uint32_t* v) {
    if (off_ + 4 > n_) return false;
    uint32_t x = 0;
    for (int i = 0; i < 4; ++i) x |= static_cast<uint32_t>(p_[off_++]) << (8 * i);
    *v = x;
    return true;
  }
  bool U64(uint64_t* v) {
    if (off_ + 8 > n_) return false;
    uint64_t x = 0;
    for (int i = 0; i < 8; ++i) x |= static_cast<uint64_t>(p_[off_++]) << (8 * i);
    *v = x;
    return true;
  }
  bool I64(int64_t* v) {
    uint64_t x;
    if (!U64(&x)) return false;
    *v = static_cast<int64_t>(x);
    return true;
  }
  bool F64(double* v) {
    uint64_t x;
    if (!U64(&x)) return false;
    std::memcpy(v, &x, sizeof(*v));
    return true;
  }
  bool Str(std::string* v) {
    uint64_t len;
    if (!U64(&len)) return false;
    if (len > n_ - off_) return false;
    v->assign(reinterpret_cast<const char*>(p_ + off_),
              static_cast<size_t>(len));
    off_ += static_cast<size_t>(len);
    return true;
  }
  /// Element-count prefix guard: a corrupt count must not drive a huge
  /// reserve() before the per-element reads start failing.
  bool Count(uint64_t* v, size_t elem_bytes) {
    if (!U64(v)) return false;
    return elem_bytes == 0 || *v <= (n_ - off_) / elem_bytes;
  }

 private:
  const uint8_t* p_;
  size_t n_;
  size_t off_ = 0;
};

// ---------------------------------------------------------------------------
// Footer serialization (shared by both writers)
// ---------------------------------------------------------------------------

/// Per-column payload-run extents, in file offsets.
struct RunExtent {
  uint64_t word_off = 0;  // absolute file offset (8-aligned)
  uint64_t n_words = 0;
  uint64_t byte_off = 0;  // absolute file offset
  uint64_t n_bytes = 0;
};

void WriteZoneMap(ByteWriter* w, const ZoneMap& z) {
  w->U64(z.min.size());
  for (double v : z.min) w->F64(v);
  for (double v : z.max) w->F64(v);
  for (uint8_t v : z.has_nan) w->U8(v);
}

void WriteStats(ByteWriter* w, const ColumnStats& s) {
  w->F64(s.min);
  w->F64(s.max);
  w->I64(s.distinct_count);
  w->I64(s.row_count);
  w->U64(s.histogram.bounds.size());
  for (double v : s.histogram.bounds) w->F64(v);
  w->I64(s.histogram.rows_per_bucket);
  w->I64(s.histogram.total_rows);
  w->U64(s.str_histogram.bounds.size());
  for (const std::string& v : s.str_histogram.bounds) w->Str(v);
  w->I64(s.str_histogram.rows_per_bucket);
  w->I64(s.str_histogram.total_rows);
  w->Str(s.str_min);
  w->Str(s.str_max);
}

void WriteColumnFooter(ByteWriter* w, const ColumnDef& def,
                       const EncodedColumn& e, const RunExtent& run,
                       const ZoneMap& zones, const ZoneMap& chunk_zones,
                       const ColumnStats& stats) {
  w->Str(def.name);
  w->U8(static_cast<uint8_t>(def.type));
  w->U8(static_cast<uint8_t>(e.mode()));
  w->U64(run.word_off);
  w->U64(run.n_words);
  w->U64(run.byte_off);
  w->U64(run.n_bytes);
  const auto& blocks = e.blocks();
  w->U64(blocks.size());
  for (const auto& b : blocks) {
    w->I64(b.ref);
    w->U64(b.range);
    w->U64(b.word_off);
    w->U64(b.byte_off);
    w->U64(b.skip_off);
    w->U32(static_cast<uint32_t>(b.rows));
    w->U8(static_cast<uint8_t>(b.kind));
    w->U8(b.width);
  }
  const auto& skips = e.skip_table();
  w->U64(skips.size());
  for (uint64_t s : skips) w->U64(s);
  const auto& di = e.dict_ints();
  w->U64(di.size());
  for (int64_t v : di) w->I64(v);
  const auto& dd = e.dict_doubles();
  w->U64(dd.size());
  for (double v : dd) w->F64(v);
  const auto& ds = e.dict_strings();
  w->U64(ds.size());
  for (const std::string& v : ds) w->Str(v);
  WriteZoneMap(w, zones);
  WriteZoneMap(w, chunk_zones);
  WriteStats(w, stats);
}

/// Pads `os` with zero bytes to the next 8-byte boundary and returns the
/// resulting (aligned) offset.
uint64_t AlignTo8(std::ofstream* os) {
  uint64_t pos = static_cast<uint64_t>(os->tellp());
  while (pos % 8 != 0) {
    os->put('\0');
    ++pos;
  }
  return pos;
}

Status FinishFile(std::ofstream* os, const std::string& path,
                  const std::string& footer) {
  const uint64_t footer_off = static_cast<uint64_t>(os->tellp());
  os->write(footer.data(), static_cast<std::streamsize>(footer.size()));
  ByteWriter tail;
  tail.U64(footer_off);
  tail.U64(footer.size());
  tail.U64(Fnv1a(footer.data(), footer.size()));
  std::string t = tail.data();
  t.append(kTailMagic, sizeof(kTailMagic));
  os->write(t.data(), static_cast<std::streamsize>(t.size()));
  os->flush();
  if (!os->good()) {
    return Status::Internal("write failure on column file '" + path + "'");
  }
  return Status::OK();
}

}  // namespace

const char* StorageBackendName(StorageBackend b) {
  switch (b) {
    case StorageBackend::kResident:
      return "resident";
    case StorageBackend::kMmap:
      return "mmap";
  }
  return "resident";
}

bool ParseStorageBackend(const std::string& token, StorageBackend* out) {
  if (token == "resident" || token == "ram" || token == "memory") {
    *out = StorageBackend::kResident;
    return true;
  }
  if (token == "mmap" || token == "file" || token == "ooc") {
    *out = StorageBackend::kMmap;
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// WriteTableFile: serialize a finalized resident table
// ---------------------------------------------------------------------------

Status WriteTableFile(const Table& table, const std::vector<ColumnStats>& stats,
                      const std::string& path) {
  const int ncols = table.schema().num_columns();
  if (static_cast<int>(stats.size()) != ncols) {
    return Status::InvalidArgument("stats/schema column count mismatch");
  }
  // The file format is block-addressed, so raw-vector columns (the kRaw
  // policy) are encoded into kRaw value blocks on the fly — same bytes a
  // sink-mode raw column would produce.
  std::vector<std::unique_ptr<EncodedColumn>> synthesized;
  std::vector<const EncodedColumn*> encs;
  synthesized.resize(static_cast<size_t>(ncols));
  for (int c = 0; c < ncols; ++c) {
    const ColumnData& col = table.column(c);
    if (col.encoded()) {
      encs.push_back(&col.enc());
      continue;
    }
    auto tmp = std::make_unique<EncodedColumn>(col.type(), Encoding::kRaw, 1);
    if (col.type() == DataType::kInt64) {
      for (int64_t v : col.ints()) tmp->AppendInt(v);
    } else {
      for (double v : col.doubles()) tmp->AppendDouble(v);
    }
    tmp->Finish();
    encs.push_back(tmp.get());
    synthesized[static_cast<size_t>(c)] = std::move(tmp);
  }

  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os.is_open()) {
    return Status::Internal("cannot create column file '" + path + "'");
  }
  os.write(kHeadMagic, sizeof(kHeadMagic));
  std::vector<RunExtent> runs(static_cast<size_t>(ncols));
  for (int c = 0; c < ncols; ++c) {
    const EncodedColumn& e = *encs[static_cast<size_t>(c)];
    RunExtent& run = runs[static_cast<size_t>(c)];
    run.word_off = AlignTo8(&os);
    run.n_words = e.payload_words().size();
    os.write(reinterpret_cast<const char*>(e.payload_words().data()),
             static_cast<std::streamsize>(run.n_words * sizeof(uint64_t)));
    run.byte_off = static_cast<uint64_t>(os.tellp());
    run.n_bytes = e.payload_bytes().size();
    os.write(reinterpret_cast<const char*>(e.payload_bytes().data()),
             static_cast<std::streamsize>(run.n_bytes));
  }
  AlignTo8(&os);  // footer parsing is offset-based; keep it tidy

  ByteWriter footer;
  footer.U32(kFormatVersion);
  footer.Str(table.schema().name());
  footer.U64(static_cast<uint64_t>(table.num_rows()));
  footer.U32(static_cast<uint32_t>(ncols));
  for (int c = 0; c < ncols; ++c) {
    WriteColumnFooter(&footer, table.schema().column(c),
                      *encs[static_cast<size_t>(c)], runs[static_cast<size_t>(c)],
                      table.column(c).zones(), table.column(c).chunk_zones(),
                      stats[static_cast<size_t>(c)]);
  }
  return FinishFile(&os, path, footer.data());
}

// ---------------------------------------------------------------------------
// TableFileStreamWriter
// ---------------------------------------------------------------------------

namespace {

/// BlockSink spilling sealed payload runs to two temporary files (word run
/// and byte run) that Finish() concatenates into the final payload.
class FileSink : public BlockSink {
 public:
  Status Open(const std::string& wpath, const std::string& bpath) {
    wpath_ = wpath;
    bpath_ = bpath;
    w_.open(wpath, std::ios::binary | std::ios::trunc);
    b_.open(bpath, std::ios::binary | std::ios::trunc);
    if (!w_.is_open() || !b_.is_open()) {
      return Status::Internal("cannot create spill file '" + wpath + "'");
    }
    return Status::OK();
  }
  void AppendWords(const uint64_t* w, size_t n) override {
    w_.write(reinterpret_cast<const char*>(w),
             static_cast<std::streamsize>(n * sizeof(uint64_t)));
    n_words_ += n;
  }
  void AppendBytes(const uint8_t* b, size_t n) override {
    b_.write(reinterpret_cast<const char*>(b),
             static_cast<std::streamsize>(n));
    n_bytes_ += n;
  }
  bool Close() {
    w_.flush();
    b_.flush();
    const bool ok = w_.good() && b_.good();
    w_.close();
    b_.close();
    return ok;
  }
  void Remove() {
    std::remove(wpath_.c_str());
    std::remove(bpath_.c_str());
  }
  uint64_t n_words() const { return n_words_; }
  uint64_t n_bytes() const { return n_bytes_; }
  const std::string& wpath() const { return wpath_; }
  const std::string& bpath() const { return bpath_; }

 private:
  std::string wpath_, bpath_;
  std::ofstream w_, b_;
  uint64_t n_words_ = 0;
  uint64_t n_bytes_ = 0;
};

/// Streams an entire file into `os` in bounded chunks.
Status CopyFileInto(const std::string& from, std::ofstream* os) {
  std::ifstream is(from, std::ios::binary);
  if (!is.is_open()) {
    return Status::Internal("cannot reopen spill file '" + from + "'");
  }
  std::vector<char> buf(1 << 20);
  while (is) {
    is.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    os->write(buf.data(), is.gcount());
  }
  if (!os->good()) return Status::Internal("write failure copying spill run");
  return Status::OK();
}

}  // namespace

/// Per-column streaming state: a sink-mode encoder, the incremental stats
/// accumulator and the incremental zone map. Zone maps must accumulate as
/// rows arrive — sealed blocks have already spilled, so a post-hoc decode
/// pass is exactly what the streaming writer exists to avoid. Numeric
/// columns track running min/max (+NaN) per block, exactly BuildZoneMap's
/// fold; string columns track per-block min/max *strings*, resolved to
/// ranks at Finish once the final dictionary fixes the rank order
/// (order-preservation makes rank(min string) == min rank, so the result
/// is bit-identical to a resident BuildZoneMap over rank values).
struct TableFileStreamWriter::ColumnState {
  DataType type = DataType::kInt64;
  std::unique_ptr<EncodedColumn> enc;
  FileSink sink;
  StreamingColumnStats stats{DataType::kInt64};
  int64_t rows = 0;

  // Numeric per-block accumulation.
  std::vector<double> block_min, block_max;
  std::vector<uint8_t> block_nan;
  double cur_lo = std::numeric_limits<double>::infinity();
  double cur_hi = -std::numeric_limits<double>::infinity();
  bool cur_nan = false;
  int64_t cur_rows = 0;

  // String per-block accumulation (min/max strings of the open block).
  std::vector<std::string> block_min_s, block_max_s;
  std::string cur_lo_s, cur_hi_s;
  bool cur_any_s = false;

  void SealBlockIfFull() {
    if (cur_rows < EncodedColumn::kBlockRows) return;
    SealBlock();
  }
  void SealBlock() {
    if (cur_rows == 0) return;
    if (type == DataType::kString) {
      block_min_s.push_back(cur_lo_s);
      block_max_s.push_back(cur_hi_s);
      block_min.push_back(0);  // patched with ranks at Finish
      block_max.push_back(0);
      block_nan.push_back(0);
      cur_any_s = false;
      cur_lo_s.clear();
      cur_hi_s.clear();
    } else {
      block_min.push_back(cur_lo);
      block_max.push_back(cur_hi);
      block_nan.push_back(type == DataType::kDouble && cur_nan ? 1 : 0);
      cur_lo = std::numeric_limits<double>::infinity();
      cur_hi = -std::numeric_limits<double>::infinity();
      cur_nan = false;
    }
    cur_rows = 0;
  }
  void NoteNumeric(double x) {
    cur_nan |= std::isnan(x);
    cur_lo = x < cur_lo ? x : cur_lo;
    cur_hi = x > cur_hi ? x : cur_hi;
    ++cur_rows;
    ++rows;
  }
  void NoteString(const std::string& v) {
    if (!cur_any_s) {
      cur_lo_s = cur_hi_s = v;
      cur_any_s = true;
    } else {
      if (v < cur_lo_s) cur_lo_s = v;
      if (v > cur_hi_s) cur_hi_s = v;
    }
    ++cur_rows;
    ++rows;
  }
  size_t TransientBytes() const {
    // enc->MemoryBytes() reports the whole encoded footprint including
    // spilled runs; subtracting what the sink already holds on disk
    // leaves the resident share (staging block + dictionary + directory).
    size_t zone_strs = 0;
    for (const auto& s : block_min_s) zone_strs += s.size() + 32;
    for (const auto& s : block_max_s) zone_strs += s.size() + 32;
    return enc->MemoryBytes() - sink.n_words() * sizeof(uint64_t) -
           sink.n_bytes() + stats.MemoryBytes() +
           (block_min.capacity() + block_max.capacity()) * sizeof(double) +
           block_nan.capacity() + zone_strs;
  }
};

TableFileStreamWriter::TableFileStreamWriter(TableSchema schema,
                                             EncodingPolicy policy)
    : schema_(std::move(schema)), policy_(std::move(policy)) {}

TableFileStreamWriter::~TableFileStreamWriter() {
  // Abandoned writer (Finish never ran): drop the temporaries.
  for (auto& cs : cols_) {
    if (cs != nullptr) {
      cs->sink.Close();
      cs->sink.Remove();
    }
  }
  if (open_) std::remove(path_.c_str());
}

Status TableFileStreamWriter::Open(const std::string& path) {
  RQP_CHECK(!open_);
  path_ = path;
  cols_.clear();
  for (int c = 0; c < schema_.num_columns(); ++c) {
    const ColumnDef& def = schema_.column(c);
    auto cs = std::make_unique<ColumnState>();
    cs->type = def.type;
    cs->stats = StreamingColumnStats(def.type);
    // Sink mode forbids numeric kDict (overflow would re-encode spilled
    // blocks); map any such request to the adaptive layout.
    Encoding enc = policy_.For(def.name);
    if (def.type != DataType::kString && enc == Encoding::kDict) {
      enc = Encoding::kAuto;
    }
    cs->enc = std::make_unique<EncodedColumn>(def.type, enc,
                                              policy_.dict_max_card);
    RQP_RETURN_NOT_OK(cs->sink.Open(path + ".w" + std::to_string(c) + ".tmp",
                                    path + ".b" + std::to_string(c) + ".tmp"));
    cs->enc->set_sink(&cs->sink);
    cols_.push_back(std::move(cs));
  }
  open_ = true;
  return Status::OK();
}

void TableFileStreamWriter::AppendInt(int col, int64_t v) {
  ColumnState& cs = *cols_[static_cast<size_t>(col)];
  cs.NoteNumeric(static_cast<double>(v));
  cs.stats.AddNumeric(static_cast<double>(v));
  cs.enc->AppendInt(v);
  cs.SealBlockIfFull();
  if (col == 0) {
    ++rows_;
    NoteUsage();
  }
}

void TableFileStreamWriter::AppendDouble(int col, double v) {
  ColumnState& cs = *cols_[static_cast<size_t>(col)];
  cs.NoteNumeric(v);
  cs.stats.AddNumeric(v);
  cs.enc->AppendDouble(v);
  cs.SealBlockIfFull();
  if (col == 0) {
    ++rows_;
    NoteUsage();
  }
}

void TableFileStreamWriter::AppendString(int col, const std::string& v) {
  ColumnState& cs = *cols_[static_cast<size_t>(col)];
  cs.NoteString(v);
  cs.stats.AddString(v);
  cs.enc->AppendString(v);
  cs.SealBlockIfFull();
  if (col == 0) {
    ++rows_;
    NoteUsage();
  }
}

void TableFileStreamWriter::NoteUsage() {
  if (rows_ % EncodedColumn::kBlockRows != 0) return;
  size_t total = 0;
  for (const auto& cs : cols_) total += cs->TransientBytes();
  peak_bytes_ = std::max(peak_bytes_, total);
}

Status TableFileStreamWriter::Finish() {
  RQP_CHECK(open_);
  for (auto& cs : cols_) {
    cs->enc->Finish();  // flushes the staging tail through the sink
    cs->SealBlock();    // seal the matching partial zone block
    if (!cs->sink.Close()) {
      return Status::Internal("spill write failure for column file '" + path_ +
                              "'");
    }
  }
  size_t total = 0;
  for (const auto& cs : cols_) total += cs->TransientBytes();
  peak_bytes_ = std::max(peak_bytes_, total);

  for (const auto& cs : cols_) {
    if (cs->rows != rows_) {
      return Status::InvalidArgument("ragged columns streamed to '" + path_ +
                                     "'");
    }
  }

  std::ofstream os(path_, std::ios::binary | std::ios::trunc);
  if (!os.is_open()) {
    return Status::Internal("cannot create column file '" + path_ + "'");
  }
  os.write(kHeadMagic, sizeof(kHeadMagic));
  std::vector<RunExtent> runs(cols_.size());
  for (size_t c = 0; c < cols_.size(); ++c) {
    RunExtent& run = runs[c];
    run.word_off = AlignTo8(&os);
    run.n_words = cols_[c]->sink.n_words();
    RQP_RETURN_NOT_OK(CopyFileInto(cols_[c]->sink.wpath(), &os));
    run.byte_off = static_cast<uint64_t>(os.tellp());
    run.n_bytes = cols_[c]->sink.n_bytes();
    RQP_RETURN_NOT_OK(CopyFileInto(cols_[c]->sink.bpath(), &os));
  }
  AlignTo8(&os);

  ByteWriter footer;
  footer.U32(kFormatVersion);
  footer.Str(schema_.name());
  footer.U64(static_cast<uint64_t>(rows_));
  footer.U32(static_cast<uint32_t>(cols_.size()));
  for (size_t c = 0; c < cols_.size(); ++c) {
    ColumnState& cs = *cols_[c];
    // Resolve string zone extremes to ranks now that the dictionary is
    // final (the tracked strings are present, so lower-bound rank is
    // exact), then fold blocks into chunks exactly as BuildZoneMap does.
    ZoneMap zones;
    zones.min = std::move(cs.block_min);
    zones.max = std::move(cs.block_max);
    zones.has_nan = std::move(cs.block_nan);
    if (cs.type == DataType::kString) {
      for (size_t b = 0; b < zones.min.size(); ++b) {
        zones.min[b] = static_cast<double>(
            cs.enc->StringLowerBoundRank(cs.block_min_s[b]));
        zones.max[b] = static_cast<double>(
            cs.enc->StringLowerBoundRank(cs.block_max_s[b]));
      }
    }
    const int64_t blocks = zones.num_blocks();
    const int64_t chunks =
        (rows_ + kShardChunkRows - 1) / kShardChunkRows;
    ZoneMap chunk_zones;
    chunk_zones.min.assign(static_cast<size_t>(chunks),
                           std::numeric_limits<double>::infinity());
    chunk_zones.max.assign(static_cast<size_t>(chunks),
                           -std::numeric_limits<double>::infinity());
    chunk_zones.has_nan.assign(static_cast<size_t>(chunks), 0);
    for (int64_t b = 0; b < blocks; ++b) {
      const size_t ch = static_cast<size_t>(b / kShardChunkBlocks);
      chunk_zones.min[ch] =
          std::min(chunk_zones.min[ch], zones.min[static_cast<size_t>(b)]);
      chunk_zones.max[ch] =
          std::max(chunk_zones.max[ch], zones.max[static_cast<size_t>(b)]);
      chunk_zones.has_nan[ch] |= zones.has_nan[static_cast<size_t>(b)];
    }
    WriteColumnFooter(&footer, schema_.column(static_cast<int>(c)), *cs.enc,
                      runs[c], zones, chunk_zones, cs.stats.Finish());
  }
  RQP_RETURN_NOT_OK(FinishFile(&os, path_, footer.data()));
  for (auto& cs : cols_) cs->sink.Remove();
  open_ = false;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// OpenMappedTable
// ---------------------------------------------------------------------------

namespace {

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::InvalidArgument("column file '" + path + "': " + what);
}

bool ReadZoneMap(Cursor* cur, ZoneMap* z) {
  uint64_t n;
  if (!cur->Count(&n, 17)) return false;  // 2 doubles + 1 byte per block
  z->min.resize(static_cast<size_t>(n));
  z->max.resize(static_cast<size_t>(n));
  z->has_nan.resize(static_cast<size_t>(n));
  for (auto& v : z->min)
    if (!cur->F64(&v)) return false;
  for (auto& v : z->max)
    if (!cur->F64(&v)) return false;
  for (auto& v : z->has_nan)
    if (!cur->U8(&v)) return false;
  return true;
}

bool ReadStats(Cursor* cur, ColumnStats* s) {
  if (!cur->F64(&s->min) || !cur->F64(&s->max) ||
      !cur->I64(&s->distinct_count) || !cur->I64(&s->row_count)) {
    return false;
  }
  uint64_t n;
  if (!cur->Count(&n, 8)) return false;
  s->histogram.bounds.resize(static_cast<size_t>(n));
  for (auto& v : s->histogram.bounds)
    if (!cur->F64(&v)) return false;
  if (!cur->I64(&s->histogram.rows_per_bucket) ||
      !cur->I64(&s->histogram.total_rows)) {
    return false;
  }
  if (!cur->Count(&n, 8)) return false;
  s->str_histogram.bounds.resize(static_cast<size_t>(n));
  for (auto& v : s->str_histogram.bounds)
    if (!cur->Str(&v)) return false;
  if (!cur->I64(&s->str_histogram.rows_per_bucket) ||
      !cur->I64(&s->str_histogram.total_rows)) {
    return false;
  }
  return cur->Str(&s->str_min) && cur->Str(&s->str_max);
}

}  // namespace

Status OpenMappedTable(const std::string& path, MappedTable* out) {
  std::shared_ptr<MmapFile> file;
  RQP_RETURN_NOT_OK(MmapFile::Open(path, &file));
  const uint8_t* base = file->data();
  const size_t size = file->size();
  if (size < sizeof(kHeadMagic) + kTailBytes) {
    return Corrupt(path, "truncated (smaller than magic + tail)");
  }
  if (std::memcmp(base, kHeadMagic, sizeof(kHeadMagic)) != 0) {
    return Corrupt(path, "bad magic");
  }
  const uint8_t* tail = base + size - kTailBytes;
  if (std::memcmp(tail + 24, kTailMagic, sizeof(kTailMagic)) != 0) {
    return Corrupt(path, "bad tail magic (truncated or overwritten)");
  }
  Cursor tc(tail, 24);
  uint64_t footer_off = 0, footer_len = 0, footer_sum = 0;
  tc.U64(&footer_off);
  tc.U64(&footer_len);
  tc.U64(&footer_sum);
  if (footer_off < sizeof(kHeadMagic) || footer_len > size - kTailBytes ||
      footer_off != size - kTailBytes - footer_len) {
    return Corrupt(path, "footer extent out of bounds");
  }
  const uint8_t* footer = base + footer_off;
  if (Fnv1a(footer, static_cast<size_t>(footer_len)) != footer_sum) {
    return Corrupt(path, "footer checksum mismatch");
  }

  Cursor cur(footer, static_cast<size_t>(footer_len));
  uint32_t version = 0;
  if (!cur.U32(&version)) return Corrupt(path, "short footer");
  if (version != kFormatVersion) {
    return Status::Unsupported("column file '" + path +
                               "': unknown format version " +
                               std::to_string(version));
  }
  std::string table_name;
  uint64_t num_rows = 0;
  uint32_t ncols = 0;
  if (!cur.Str(&table_name) || !cur.U64(&num_rows) || !cur.U32(&ncols)) {
    return Corrupt(path, "short footer header");
  }
  if (ncols > 4096 || num_rows > (uint64_t{1} << 40)) {
    return Corrupt(path, "implausible column/row count");
  }

  struct ParsedColumn {
    ColumnDef def;
    Encoding mode = Encoding::kAuto;
    RunExtent run;
    std::vector<EncodedColumn::Block> blocks;
    std::vector<uint64_t> skips;
    std::vector<int64_t> dict_i;
    std::vector<double> dict_d;
    std::vector<std::string> dict_s;
    ZoneMap zones, chunk_zones;
    ColumnStats stats;
  };
  std::vector<ParsedColumn> parsed(ncols);
  for (uint32_t c = 0; c < ncols; ++c) {
    ParsedColumn& pc = parsed[c];
    uint8_t type8 = 0, mode8 = 0;
    if (!cur.Str(&pc.def.name) || !cur.U8(&type8) || !cur.U8(&mode8)) {
      return Corrupt(path, "short column header");
    }
    if (type8 > static_cast<uint8_t>(DataType::kString) ||
        mode8 > static_cast<uint8_t>(Encoding::kDict)) {
      return Corrupt(path, "bad column type/mode");
    }
    pc.def.type = static_cast<DataType>(type8);
    pc.mode = static_cast<Encoding>(mode8);
    if (!cur.U64(&pc.run.word_off) || !cur.U64(&pc.run.n_words) ||
        !cur.U64(&pc.run.byte_off) || !cur.U64(&pc.run.n_bytes)) {
      return Corrupt(path, "short run extents");
    }
    // Payload runs must live inside [magic, footer) and words must stay
    // 8-aligned — the mapped uint64 view depends on it.
    if (pc.run.word_off % 8 != 0 || pc.run.word_off < sizeof(kHeadMagic) ||
        pc.run.n_words > (footer_off - pc.run.word_off) / 8 ||
        pc.run.byte_off < sizeof(kHeadMagic) || pc.run.byte_off > footer_off ||
        pc.run.n_bytes > footer_off - pc.run.byte_off) {
      return Corrupt(path, "payload run out of bounds");
    }
    uint64_t nblocks;
    if (!cur.Count(&nblocks, 46)) return Corrupt(path, "bad block count");
    pc.blocks.resize(static_cast<size_t>(nblocks));
    int64_t total_rows = 0;
    for (auto& b : pc.blocks) {
      uint32_t rows32 = 0;
      uint8_t kind8 = 0;
      if (!cur.I64(&b.ref) || !cur.U64(&b.range) || !cur.U64(&b.word_off) ||
          !cur.U64(&b.byte_off) || !cur.U64(&b.skip_off) || !cur.U32(&rows32) ||
          !cur.U8(&kind8) || !cur.U8(&b.width)) {
        return Corrupt(path, "short block directory");
      }
      if (rows32 == 0 || rows32 > EncodedColumn::kBlockRows || b.width > 64 ||
          kind8 > static_cast<uint8_t>(Encoding::kDict)) {
        return Corrupt(path, "bad block entry");
      }
      b.rows = static_cast<int32_t>(rows32);
      b.kind = static_cast<Encoding>(kind8);
      total_rows += b.rows;
    }
    if (total_rows != static_cast<int64_t>(num_rows)) {
      return Corrupt(path, "block rows disagree with table rows");
    }
    uint64_t n;
    if (!cur.Count(&n, 8)) return Corrupt(path, "bad skip count");
    pc.skips.resize(static_cast<size_t>(n));
    for (auto& v : pc.skips)
      if (!cur.U64(&v)) return Corrupt(path, "short skip table");
    if (!cur.Count(&n, 8)) return Corrupt(path, "bad dict count");
    pc.dict_i.resize(static_cast<size_t>(n));
    for (auto& v : pc.dict_i)
      if (!cur.I64(&v)) return Corrupt(path, "short int dictionary");
    if (!cur.Count(&n, 8)) return Corrupt(path, "bad dict count");
    pc.dict_d.resize(static_cast<size_t>(n));
    for (auto& v : pc.dict_d)
      if (!cur.F64(&v)) return Corrupt(path, "short double dictionary");
    if (!cur.Count(&n, 8)) return Corrupt(path, "bad dict count");
    pc.dict_s.resize(static_cast<size_t>(n));
    for (auto& v : pc.dict_s)
      if (!cur.Str(&v)) return Corrupt(path, "short string dictionary");
    if (!ReadZoneMap(&cur, &pc.zones) || !ReadZoneMap(&cur, &pc.chunk_zones)) {
      return Corrupt(path, "short zone maps");
    }
    if (!ReadStats(&cur, &pc.stats)) return Corrupt(path, "short stats");

    // Per-block payload bounds: no block may address words, bytes or skip
    // entries beyond its column's runs, whatever the (checksummed but
    // still untrusted) directory claims.
    const uint64_t dict_n =
        std::max({pc.dict_i.size(), pc.dict_d.size(), pc.dict_s.size()});
    for (const auto& b : pc.blocks) {
      const uint64_t rows = static_cast<uint64_t>(b.rows);
      if (b.kind == Encoding::kVbyte) {
        const uint64_t groups =
            (rows + vbyte::kVbyteGroup - 1) / vbyte::kVbyteGroup;
        if (b.byte_off > pc.run.n_bytes || groups > pc.skips.size() ||
            b.skip_off > pc.skips.size() - groups) {
          return Corrupt(path, "vbyte block out of bounds");
        }
        for (uint64_t g = 0; g < groups; ++g) {
          if (pc.skips[static_cast<size_t>(b.skip_off + g)] >
              pc.run.n_bytes) {
            return Corrupt(path, "skip entry out of bounds");
          }
        }
      } else {
        const uint64_t need =
            b.kind == Encoding::kRaw
                ? rows
                : (rows * static_cast<uint64_t>(b.width) + 63) / 64;
        if (b.word_off > pc.run.n_words ||
            need > pc.run.n_words - b.word_off) {
          return Corrupt(path, "block payload out of bounds");
        }
        if (b.kind == Encoding::kDict && b.range >= dict_n) {
          return Corrupt(path, "dictionary code out of range");
        }
      }
    }
    const int64_t want_blocks =
        (static_cast<int64_t>(num_rows) + kZoneBlockRows - 1) / kZoneBlockRows;
    const int64_t want_chunks =
        (static_cast<int64_t>(num_rows) + kShardChunkRows - 1) /
        kShardChunkRows;
    if (pc.zones.num_blocks() != want_blocks ||
        pc.chunk_zones.num_blocks() != want_chunks) {
      return Corrupt(path, "zone map size disagrees with row count");
    }
  }

  // Everything validated; assemble the table. Payload pointers alias the
  // mapping, which the table retains.
  std::vector<ColumnDef> defs;
  defs.reserve(parsed.size());
  for (const auto& pc : parsed) defs.push_back(pc.def);
  auto table =
      std::make_shared<Table>(TableSchema(table_name, std::move(defs)));
  std::vector<ColumnStats> stats;
  stats.reserve(parsed.size());
  for (uint32_t c = 0; c < ncols; ++c) {
    ParsedColumn& pc = parsed[c];
    auto enc = EncodedColumn::FromMapped(
        pc.def.type, pc.mode, std::move(pc.blocks),
        static_cast<int64_t>(num_rows),
        reinterpret_cast<const uint64_t*>(base + pc.run.word_off),
        pc.run.n_words, base + pc.run.byte_off, pc.run.n_bytes,
        std::move(pc.skips), std::move(pc.dict_i), std::move(pc.dict_d),
        std::move(pc.dict_s));
    table->column(static_cast<int>(c))
        .AdoptEncoded(std::move(enc), std::move(pc.zones),
                      std::move(pc.chunk_zones));
    stats.push_back(std::move(pc.stats));
  }
  table->Retain(file);
  RQP_RETURN_NOT_OK(table->FinalizeAdopted());
  out->table = std::move(table);
  out->stats = std::move(stats);
  return Status::OK();
}

}  // namespace robustqp
