#include "harness/checkpoint.hpp"

#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace p2panon::harness {

bool atomic_write_file(const std::filesystem::path& path, std::string_view payload) {
  std::error_code ec;
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path(), ec);  // best effort
  }
  // Temp file in the same directory so the rename cannot cross filesystems.
  std::filesystem::path tmp = path;
  tmp += ".tmp";
  {
    // This IS the atomic-rename helper's write leg.
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    out.flush();
    if (!out) {
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

std::uint64_t fnv1a_bytes(std::uint64_t h, std::string_view bytes) noexcept {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t fnv1a_double(std::uint64_t h, double x) noexcept {
  return fnv1a_mix(h, std::bit_cast<std::uint64_t>(x));
}

std::string encode_u64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return std::string(buf);
}

std::optional<std::uint64_t> decode_u64(std::string_view s) noexcept {
  if (s.empty() || s.size() > 16) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      v |= static_cast<std::uint64_t>(c - 'A' + 10);
    } else {
      return std::nullopt;
    }
  }
  return v;
}

std::string encode_double(double x) { return encode_u64(std::bit_cast<std::uint64_t>(x)); }

std::optional<double> decode_double(std::string_view s) noexcept {
  const auto bits = decode_u64(s);
  if (!bits) return std::nullopt;
  return std::bit_cast<double>(*bits);
}

std::string encode_accumulator(const metrics::Accumulator& acc) {
  const auto raw = acc.raw();
  return encode_u64(raw.n) + " " + encode_u64(raw.mean_bits) + " " + encode_u64(raw.m2_bits) +
         " " + encode_u64(raw.min_bits) + " " + encode_u64(raw.max_bits);
}

std::optional<metrics::Accumulator> decode_accumulator(const std::string& s) {
  std::istringstream in(s);
  std::string tok;
  std::uint64_t v[5] = {};
  for (std::uint64_t& x : v) {
    const auto d = (in >> tok) ? decode_u64(tok) : std::nullopt;
    if (!d) return std::nullopt;
    x = *d;
  }
  return metrics::Accumulator::from_raw({v[0], v[1], v[2], v[3], v[4]});
}

void Checkpoint::set(std::string key, std::string value) {
  for (auto& [k, v] : records_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  records_.emplace_back(std::move(key), std::move(value));
}

const std::string* Checkpoint::find(std::string_view key) const noexcept {
  for (const auto& [k, v] : records_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Checkpoint::erase_prefix(std::string_view prefix) {
  std::erase_if(records_, [&](const auto& rec) {
    return rec.first.size() >= prefix.size() &&
           std::string_view(rec.first).substr(0, prefix.size()) == prefix;
  });
}

bool Checkpoint::save(const std::filesystem::path& path) const {
  std::ostringstream out;
  out << kHeader << "\n";
  std::uint64_t digest = fnv1a_init();
  for (const auto& [k, v] : records_) {
    out << k << " " << v << "\n";
    digest = fnv1a_bytes(digest, k);
    digest = fnv1a_bytes(digest, v);
  }
  out << "digest " << encode_u64(digest) << "\n";
  return atomic_write_file(path, out.str());
}

std::optional<Checkpoint> Checkpoint::load(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line) || line != kHeader) return std::nullopt;

  Checkpoint ckpt;
  std::uint64_t digest = fnv1a_init();
  bool digest_ok = false;
  while (std::getline(in, line)) {
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos || sp == 0) return std::nullopt;
    std::string key = line.substr(0, sp);
    std::string value = line.substr(sp + 1);
    if (key == "digest") {
      const auto stored = decode_u64(value);
      digest_ok = stored && *stored == digest;
      // Anything after the digest line (torn concatenation) invalidates.
      if (std::getline(in, line)) return std::nullopt;
      break;
    }
    digest = fnv1a_bytes(digest, key);
    digest = fnv1a_bytes(digest, value);
    ckpt.records_.emplace_back(std::move(key), std::move(value));
  }
  if (!digest_ok) return std::nullopt;
  return ckpt;
}

}  // namespace p2panon::harness
