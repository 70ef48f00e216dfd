#include "util/csv.h"

#include <fstream>

#include "util/file.h"

namespace alem {

std::vector<std::vector<std::string>> ParseCsv(std::string_view content) {
  std::vector<std::vector<std::string>> rows;
  if (content.empty()) return rows;

  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;  // Distinguishes "" (one empty field) from "".

  auto end_field = [&] {
    row.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  auto end_row = [&] {
    end_field();
    rows.push_back(std::move(row));
    row.clear();
  };

  for (size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < content.size() && content[i + 1] == '"') {
          field.push_back('"');
          ++i;  // Doubled quote -> literal quote.
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
      continue;
    }
    switch (c) {
      case '"':
        if (!field_started && field.empty()) {
          in_quotes = true;
          field_started = true;
        } else {
          field.push_back(c);  // Stray quote mid-field: keep literally.
        }
        break;
      case ',':
        end_field();
        break;
      case '\r':
        // Swallow; the following '\n' (if any) terminates the row.
        break;
      case '\n':
        end_row();
        break;
      default:
        field.push_back(c);
        field_started = true;
        break;
    }
  }
  // Final row without trailing newline.
  if (field_started || !field.empty() || !row.empty()) end_row();
  return rows;
}

namespace {

bool NeedsQuoting(std::string_view field) {
  return field.find_first_of(",\"\r\n") != std::string_view::npos;
}

void AppendField(std::string_view field, std::string* out) {
  if (!NeedsQuoting(field)) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (const char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

std::string WriteCsv(const std::vector<std::vector<std::string>>& rows) {
  std::string out;
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out.push_back(',');
      AppendField(row[i], &out);
    }
    out.push_back('\n');
  }
  return out;
}

bool ReadCsvFile(const std::string& path,
                 std::vector<std::vector<std::string>>* rows) {
  std::string content;
  if (!ReadWholeFile(path, &content)) return false;
  *rows = ParseCsv(content);
  return true;
}

bool WriteCsvFile(const std::string& path,
                  const std::vector<std::vector<std::string>>& rows) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << WriteCsv(rows);
  return static_cast<bool>(out);
}

}  // namespace alem
