#include "features/feature_matrix.h"

#include <cstdint>
#include <cstring>

#include "util/check.h"
#include "util/fnv.h"

namespace alem {
namespace {

// Serialization format (all fields little-endian host layout):
//   bytes 0..3   magic "ALFM"
//   bytes 4..7   uint32 format version (kMatrixFormatVersion)
//   bytes 8..15  uint64 rows
//   bytes 16..23 uint64 dims
//   bytes 24..31 uint64 FNV-1a hash of the float payload
//   bytes 32..   rows * dims raw floats
constexpr char kMatrixMagic[4] = {'A', 'L', 'F', 'M'};
constexpr uint32_t kMatrixFormatVersion = 1;
constexpr size_t kMatrixHeaderSize = 4 + 4 + 8 + 8 + 8;

void AppendRaw(std::string* out, const void* data, size_t size) {
  out->append(static_cast<const char*>(data), size);
}

}  // namespace

FeatureMatrix::FeatureMatrix(size_t rows, size_t dims)
    : rows_(rows), dims_(dims), data_(rows * dims, 0.0f) {}

const float* FeatureMatrix::Row(size_t i) const {
  ALEM_CHECK_LT(i, rows_);
  return data_.data() + i * dims_;
}

float* FeatureMatrix::MutableRow(size_t i) {
  ALEM_CHECK_LT(i, rows_);
  return data_.data() + i * dims_;
}

float FeatureMatrix::At(size_t row, size_t dim) const {
  ALEM_CHECK_LT(row, rows_);
  ALEM_CHECK_LT(dim, dims_);
  return data_[row * dims_ + dim];
}

void FeatureMatrix::Set(size_t row, size_t dim, float value) {
  ALEM_CHECK_LT(row, rows_);
  ALEM_CHECK_LT(dim, dims_);
  data_[row * dims_ + dim] = value;
}

FeatureMatrix FeatureMatrix::Gather(
    const std::vector<size_t>& row_indices) const {
  FeatureMatrix out(row_indices.size(), dims_);
  for (size_t i = 0; i < row_indices.size(); ++i) {
    std::memcpy(out.MutableRow(i), Row(row_indices[i]),
                dims_ * sizeof(float));
  }
  return out;
}

void FeatureMatrix::AppendRow(const std::vector<float>& row) {
  if (rows_ == 0 && dims_ == 0) dims_ = row.size();
  ALEM_CHECK_EQ(row.size(), dims_);
  data_.insert(data_.end(), row.begin(), row.end());
  ++rows_;
}

std::string FeatureMatrix::Serialize() const {
  const size_t payload_bytes = data_.size() * sizeof(float);
  std::string out;
  out.reserve(kMatrixHeaderSize + payload_bytes);
  AppendRaw(&out, kMatrixMagic, sizeof(kMatrixMagic));
  const uint32_t version = kMatrixFormatVersion;
  AppendRaw(&out, &version, sizeof(version));
  const uint64_t rows = rows_;
  const uint64_t dims = dims_;
  AppendRaw(&out, &rows, sizeof(rows));
  AppendRaw(&out, &dims, sizeof(dims));
  const uint64_t checksum =
      Fnv1aMix(kFnvOffsetBasis, data_.data(), payload_bytes);
  AppendRaw(&out, &checksum, sizeof(checksum));
  AppendRaw(&out, data_.data(), payload_bytes);
  return out;
}

bool FeatureMatrix::Deserialize(std::string_view blob, FeatureMatrix* out) {
  if (blob.size() < kMatrixHeaderSize) return false;
  const char* cursor = blob.data();
  if (std::memcmp(cursor, kMatrixMagic, sizeof(kMatrixMagic)) != 0) {
    return false;
  }
  cursor += sizeof(kMatrixMagic);
  uint32_t version = 0;
  std::memcpy(&version, cursor, sizeof(version));
  cursor += sizeof(version);
  if (version != kMatrixFormatVersion) return false;
  uint64_t rows = 0;
  uint64_t dims = 0;
  uint64_t checksum = 0;
  std::memcpy(&rows, cursor, sizeof(rows));
  cursor += sizeof(rows);
  std::memcpy(&dims, cursor, sizeof(dims));
  cursor += sizeof(dims);
  std::memcpy(&checksum, cursor, sizeof(checksum));
  cursor += sizeof(checksum);

  // Reject shapes whose element count overflows or whose payload size does
  // not exactly match the remaining bytes (truncated or padded file).
  if (dims != 0 && rows > SIZE_MAX / sizeof(float) / dims) return false;
  const size_t expected_payload =
      static_cast<size_t>(rows) * static_cast<size_t>(dims) * sizeof(float);
  if (blob.size() - kMatrixHeaderSize != expected_payload) return false;
  if (Fnv1aMix(kFnvOffsetBasis, cursor, expected_payload) != checksum) {
    return false;
  }

  FeatureMatrix parsed(static_cast<size_t>(rows), static_cast<size_t>(dims));
  std::memcpy(parsed.data_.data(), cursor, expected_payload);
  *out = std::move(parsed);
  return true;
}

}  // namespace alem
