#include "src/data/store.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "src/data/ooc.hpp"
#include "src/data/table_io.hpp"
#include "src/util/json.hpp"
#include "src/util/str.hpp"

namespace iotax::data {

namespace {

constexpr const char* kFormatName = "iotax-store";
constexpr const char* kManifestName = "manifest.json";

// FNV-1a-64, same constants as the model-registry params hash; streamed
// over column bytes as they are written.
constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a_update(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::string fnv1a_hex(std::uint64_t h) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------
// StoreWriter

struct StoreWriter::ColumnFile {
  std::string name;       // column name in the manifest
  std::string file;       // file name relative to the store dir
  std::FILE* fp = nullptr;
  std::uint64_t fnv = kFnvOffset;
};

StoreWriter::StoreWriter(const std::string& dir,
                         std::vector<std::string> feature_names,
                         std::string system_name)
    : dir_(dir),
      feature_names_(std::move(feature_names)),
      system_name_(std::move(system_name)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    throw std::runtime_error("StoreWriter: cannot create '" + dir_ +
                             "': " + ec.message());
  }
  const auto meta_names = dataset_meta_columns();
  meta_scratch_.resize(meta_names.size());
  std::vector<std::string> all(feature_names_);
  for (const char* m : meta_names) all.emplace_back(m);
  cols_.reserve(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    ColumnFile cf;
    cf.name = all[i];
    // Formatted, then moved in: GCC 12 reports a false -Wrestrict
    // inside std::string's operator+ and assign for this name.
    char file[32];
    std::snprintf(file, sizeof(file), "c%zu.f64", i);
    cf.file = std::string(file);
    const std::string path = dir_ + "/" + cf.file;
    cf.fp = std::fopen(path.c_str(), "wb");
    if (cf.fp == nullptr) {
      throw std::runtime_error("StoreWriter: cannot open '" + path +
                               "' for writing");
    }
    cols_.push_back(std::move(cf));
  }
}

StoreWriter::~StoreWriter() {
  for (auto& cf : cols_) {
    if (cf.fp != nullptr) std::fclose(cf.fp);
  }
}

void StoreWriter::write_column(std::size_t index, const double* values,
                               std::size_t n) {
  ColumnFile& cf = cols_[index];
  const std::size_t bytes = n * sizeof(double);
  if (std::fwrite(values, 1, bytes, cf.fp) != bytes) {
    throw std::runtime_error("StoreWriter: short write to '" + dir_ + "/" +
                             cf.file + "'");
  }
  cf.fnv = fnv1a_update(cf.fnv, values, bytes);
}

void StoreWriter::append_rows(const Dataset& chunk, std::size_t row0,
                              std::size_t n) {
  if (finished_) throw std::logic_error("StoreWriter: append after finish");
  if (n == 0) return;
  if (row0 + n > chunk.size()) {
    throw std::out_of_range("StoreWriter::append_rows: row range");
  }
  if (chunk.features.names() != feature_names_) {
    throw std::invalid_argument(
        "StoreWriter: chunk feature columns do not match the declared "
        "store columns");
  }
  for (std::size_t c = 0; c < feature_names_.size(); ++c) {
    const auto col = chunk.features.col(c);
    write_column(c, col.data() + row0, n);
  }
  encode_dataset_meta(chunk, row0, n, meta_scratch_);
  for (std::size_t m = 0; m < meta_scratch_.size(); ++m) {
    write_column(feature_names_.size() + m, meta_scratch_[m].data(), n);
  }
  rows_ += n;
}

void StoreWriter::finish() {
  if (finished_) return;
  if (rows_ == 0) {
    throw std::runtime_error("StoreWriter: refusing to write an empty store");
  }
  util::Json columns = util::Json::array();
  for (auto& cf : cols_) {
    if (std::fclose(cf.fp) != 0) {
      cf.fp = nullptr;
      throw std::runtime_error("StoreWriter: cannot close '" + dir_ + "/" +
                               cf.file + "'");
    }
    cf.fp = nullptr;
    util::Json col = util::Json::object();
    col.set("name", cf.name);
    col.set("file", cf.file);
    col.set("dtype", "f64");
    col.set("rows", rows_);
    col.set("checksum", fnv1a_hex(cf.fnv));
    columns.push_back(std::move(col));
  }
  util::Json manifest = util::Json::object();
  manifest.set("format", kFormatName);
  manifest.set("version", kStoreFormatVersion);
  manifest.set("system", system_name_);
  manifest.set("rows", rows_);
  manifest.set("columns", std::move(columns));
  const std::string path = dir_ + "/" + kManifestName;
  std::ofstream out(path, std::ios::binary);
  out << manifest.dump(2) << "\n";
  out.close();
  if (!out) {
    throw std::runtime_error("StoreWriter: cannot write '" + path + "'");
  }
  finished_ = true;
}

void pack_dataset(const std::string& dir, const Dataset& ds) {
  StoreWriter writer(dir, ds.features.names(), ds.system_name);
  const std::size_t chunk = ooc::settings().chunk_rows;
  for (std::size_t row0 = 0; row0 < ds.size(); row0 += chunk) {
    writer.append_rows(ds, row0, std::min(chunk, ds.size() - row0));
  }
  writer.finish();
}

// ---------------------------------------------------------------------
// ColumnStore

std::string ColumnStore::OpenOutcome::first_error() const {
  if (store != nullptr || quarantine.entries().empty()) return "";
  const auto& e = quarantine.entries().front();
  return std::string(util::reason_name(e.reason)) + ": " + e.detail;
}

namespace {

/// One structural defect fails the open; `field` names the manifest
/// field (or file) at fault, ModelRegistry-diagnostic style.
ColumnStore::OpenOutcome fail(util::Reason reason, const std::string& detail) {
  ColumnStore::OpenOutcome out;
  out.quarantine.add({reason, 0, static_cast<std::size_t>(-1), 0, detail});
  return out;
}

}  // namespace

ColumnStore::OpenOutcome ColumnStore::open(const std::string& dir,
                                           bool verify_checksums) {
  using util::Reason;
  const std::string manifest_path = dir + "/" + kManifestName;

  std::ifstream in(manifest_path, std::ios::binary);
  if (!in) {
    return fail(Reason::kBadMagic,
                manifest_path + ": missing manifest (not an iotax store)");
  }
  std::stringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    return fail(Reason::kTruncated, manifest_path + ": read error");
  }

  util::Json manifest;
  try {
    manifest = util::Json::parse(buf.str());
  } catch (const std::exception& e) {
    return fail(Reason::kMalformedHeader,
                manifest_path + ": " + e.what());
  }
  if (!manifest.is_object()) {
    return fail(Reason::kMalformedHeader,
                manifest_path + ": manifest root is not an object");
  }

  const auto* format = manifest.find("format");
  if (format == nullptr) {
    return fail(Reason::kIncompleteHeader,
                manifest_path + ": missing field 'format'");
  }
  if (!format->is_string() || format->as_string() != kFormatName) {
    return fail(Reason::kBadMagic, manifest_path + ": field 'format' is not '" +
                                       std::string(kFormatName) + "'");
  }
  const auto* version = manifest.find("version");
  if (version == nullptr) {
    return fail(Reason::kIncompleteHeader,
                manifest_path + ": missing field 'version'");
  }
  long long version_value = 0;
  try {
    version_value = version->as_int();
  } catch (const std::exception&) {
    return fail(Reason::kBadNumber,
                manifest_path + ": field 'version' is not an integer");
  }
  if (version_value != kStoreFormatVersion) {
    return fail(Reason::kBadVersion,
                manifest_path + ": unsupported store version " +
                    std::to_string(version_value) + " (this build reads v" +
                    std::to_string(kStoreFormatVersion) + ")");
  }
  const auto* system = manifest.find("system");
  if (system == nullptr) {
    return fail(Reason::kIncompleteHeader,
                manifest_path + ": missing field 'system'");
  }
  if (!system->is_string()) {
    return fail(Reason::kMalformedHeader,
                manifest_path + ": field 'system' is not a string");
  }
  const auto* rows_field = manifest.find("rows");
  if (rows_field == nullptr) {
    return fail(Reason::kIncompleteHeader,
                manifest_path + ": missing field 'rows'");
  }
  long long rows_value = 0;
  try {
    rows_value = rows_field->as_int();
  } catch (const std::exception&) {
    return fail(Reason::kBadNumber,
                manifest_path + ": field 'rows' is not an integer");
  }
  if (rows_value <= 0 || rows_value > (1ll << 40)) {
    return fail(Reason::kImplausibleSize,
                manifest_path + ": field 'rows' (" +
                    std::to_string(rows_value) + ") is not a plausible count");
  }
  const auto rows = static_cast<std::size_t>(rows_value);

  const auto* columns = manifest.find("columns");
  if (columns == nullptr) {
    return fail(Reason::kIncompleteHeader,
                manifest_path + ": missing field 'columns'");
  }
  if (!columns->is_array() || columns->size() == 0) {
    return fail(Reason::kMalformedHeader,
                manifest_path + ": field 'columns' is not a non-empty array");
  }

  auto store = std::unique_ptr<ColumnStore>(new ColumnStore());
  store->dir_ = dir;
  store->rows_ = rows;
  store->dataset_.system_name = system->as_string();

  std::unordered_map<std::string, std::span<const double>> by_name;
  std::vector<std::pair<std::string, std::span<const double>>> ordered;
  for (std::size_t i = 0; i < columns->size(); ++i) {
    const util::Json& col = (*columns)[i];
    const std::string where =
        manifest_path + ": columns[" + std::to_string(i) + "]";
    if (!col.is_object()) {
      return fail(Reason::kMalformedHeader, where + " is not an object");
    }
    for (const char* key : {"name", "file", "dtype", "rows", "checksum"}) {
      if (col.find(key) == nullptr) {
        return fail(Reason::kIncompleteHeader,
                    where + ": missing field '" + key + "'");
      }
    }
    if (!col.at("name").is_string() || !col.at("file").is_string() ||
        !col.at("dtype").is_string() || !col.at("checksum").is_string()) {
      return fail(Reason::kMalformedHeader,
                  where + ": name/file/dtype/checksum must be strings");
    }
    const std::string& name = col.at("name").as_string();
    const std::string& file = col.at("file").as_string();
    if (col.at("dtype").as_string() != "f64") {
      return fail(Reason::kMalformedHeader,
                  where + ": field 'dtype' is '" +
                      col.at("dtype").as_string() + "', expected 'f64'");
    }
    if (file.empty() || file.find('/') != std::string::npos ||
        file.find("..") != std::string::npos) {
      return fail(Reason::kMalformedHeader,
                  where + ": field 'file' ('" + file +
                      "') must be a plain file name inside the store");
    }
    long long col_rows = 0;
    try {
      col_rows = col.at("rows").as_int();
    } catch (const std::exception&) {
      return fail(Reason::kBadNumber,
                  where + ": field 'rows' is not an integer");
    }
    if (col_rows != rows_value) {
      return fail(Reason::kSizeMismatch,
                  where + ": column '" + name + "' has " +
                      std::to_string(col_rows) + " rows, manifest says " +
                      std::to_string(rows_value));
    }
    if (by_name.count(name) != 0) {
      return fail(Reason::kMalformedHeader,
                  where + ": duplicate column name '" + name + "'");
    }

    const std::string path = dir + "/" + file;
    std::string map_error;
    auto map = MappedFile::map_readonly(path, &map_error);
    if (map == nullptr) {
      return fail(Reason::kTruncated,
                  path + ": column '" + name + "': " + map_error);
    }
    const std::size_t expect_bytes = rows * sizeof(double);
    if (map->size() < expect_bytes) {
      return fail(Reason::kTruncated,
                  path + ": column '" + name + "' is " +
                      std::to_string(map->size()) + " bytes, expected " +
                      std::to_string(expect_bytes));
    }
    if (map->size() > expect_bytes) {
      return fail(Reason::kTrailingBytes,
                  path + ": column '" + name + "' is " +
                      std::to_string(map->size()) + " bytes, expected " +
                      std::to_string(expect_bytes));
    }
    if (verify_checksums) {
      const std::uint64_t fnv =
          fnv1a_update(kFnvOffset, map->data(), map->size());
      const std::string& expect = col.at("checksum").as_string();
      const std::string got = fnv1a_hex(fnv);
      if (got != expect) {
        return fail(Reason::kBadChecksum,
                    path + ": column '" + name + "' checksum " + got +
                        " does not match manifest " + expect);
      }
    }
    const std::span<const double> values(
        reinterpret_cast<const double*>(map->data()), rows);
    by_name.emplace(name, values);
    ordered.emplace_back(name, values);
    store->maps_.push_back(std::move(map));
  }

  // Reserved meta columns must all be present; everything else is a
  // feature column, exposed in manifest order.
  std::vector<std::span<const double>> meta_spans;
  for (const char* meta_name : dataset_meta_columns()) {
    const auto it = by_name.find(meta_name);
    if (it == by_name.end()) {
      return fail(Reason::kIncompleteHeader,
                  manifest_path + ": missing reserved column '" +
                      std::string(meta_name) + "'");
    }
    meta_spans.push_back(it->second);
  }
  for (const auto& [name, values] : ordered) {
    if (!util::starts_with(name, "__meta_")) {
      store->dataset_.features.add_column_ref(name, values);
    }
  }
  if (store->dataset_.features.n_cols() == 0) {
    return fail(Reason::kIncompleteHeader,
                manifest_path + ": store has no feature columns");
  }
  decode_dataset_meta(meta_spans, rows, &store->dataset_.meta,
                      &store->dataset_.target);

  OpenOutcome out;
  out.store = std::move(store);
  return out;
}

std::size_t ColumnStore::mapped_bytes() const {
  std::size_t total = 0;
  for (const auto& m : maps_) total += m->size();
  return total;
}

}  // namespace iotax::data
