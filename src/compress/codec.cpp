#include "compress/codec.hpp"

#include <algorithm>
#include <cctype>
#include <mutex>

#include "compress/bwc.hpp"
#include "compress/lzh.hpp"

namespace atc::comp {

void
StoreCodec::compressBlock(const uint8_t *data, size_t n,
                          util::ByteSink &out) const
{
    out.write(data, n);
}

void
StoreCodec::decompressBlock(util::ByteSource &in, size_t raw_size,
                            std::vector<uint8_t> &out) const
{
    // Grow with the bytes actually read, never by the declared size
    // alone: a frame claiming 256 MiB over a few bytes fails truncated
    // after one small step.
    out.clear();
    while (out.size() < raw_size) {
        size_t have = out.size();
        size_t step = std::min(raw_size - have,
                               std::max<size_t>(have, 64 << 10));
        out.resize(have + step);
        in.readExact(out.data() + have, step);
    }
}

util::Status
checkBlockSize(const Codec &codec, size_t block)
{
    if (block <= codec.maxBlockSize())
        return {};
    return util::Status::error(
        "codec block of " + std::to_string(block) + " bytes exceeds the " +
        codec.name() + " block cap of " +
        std::to_string(codec.maxBlockSize()) + " bytes");
}

namespace {

bool
validToken(const std::string &s, bool allow_plus = false)
{
    if (s.empty())
        return false;
    for (char c : s) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
            c != '-' && c != '.' && !(allow_plus && c == '+'))
            return false;
    }
    return true;
}

/** Factory for stateless parameterless codecs: one shared instance. */
CodecRegistry::Factory
statelessFactory(std::shared_ptr<const Codec> instance)
{
    return [instance](const CodecSpec &spec)
               -> util::StatusOr<std::shared_ptr<const Codec>> {
        if (!spec.params.empty()) {
            return util::Status::error(
                "codec '" + spec.name + "' accepts no parameter '" +
                spec.params.front().first + "'");
        }
        return instance;
    };
}

} // namespace

util::StatusOr<CodecSpec>
CodecSpec::parse(const std::string &spec)
{
    CodecSpec out;
    size_t colon = spec.find(':');
    out.name = spec.substr(0, colon);
    if (!validToken(out.name))
        return util::Status::error("malformed codec spec '" + spec +
                                   "': bad codec name");
    if (colon == std::string::npos)
        return out;

    std::string rest = spec.substr(colon + 1);
    size_t pos = 0;
    while (true) {
        size_t comma = rest.find(',', pos);
        std::string item = rest.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        size_t eq = item.find('=');
        if (eq == std::string::npos)
            return util::Status::error("malformed codec spec '" + spec +
                                       "': parameter '" + item +
                                       "' is not key=value");
        std::string key = item.substr(0, eq);
        std::string value = item.substr(eq + 1);
        // Values additionally admit '+' so list-valued parameters can
        // ride the same grammar (the sampling plan's at=A+B+C starts).
        if (!validToken(key) || !validToken(value, /*allow_plus=*/true))
            return util::Status::error("malformed codec spec '" + spec +
                                       "': bad parameter '" + item + "'");
        if (out.find(key) != nullptr)
            return util::Status::error("malformed codec spec '" + spec +
                                       "': duplicate key '" + key + "'");
        out.params.emplace_back(std::move(key), std::move(value));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

std::string
CodecSpec::toString() const
{
    std::string out = name;
    char sep = ':';
    for (const auto &[key, value] : params) {
        out += sep;
        out += key;
        out += '=';
        out += value;
        sep = ',';
    }
    return out;
}

const std::string *
CodecSpec::find(const std::string &key) const
{
    for (const auto &[k, v] : params) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

util::StatusOr<size_t>
CodecSpec::sizeParam(const std::string &key, size_t fallback) const
{
    const std::string *raw = find(key);
    if (raw == nullptr)
        return fallback;

    uint64_t value = 0;
    size_t i = 0;
    for (; i < raw->size() &&
           std::isdigit(static_cast<unsigned char>((*raw)[i]));
         ++i) {
        value = value * 10 + static_cast<uint64_t>((*raw)[i] - '0');
        if (value > (uint64_t(1) << 48))
            return util::Status::error("codec parameter '" + key + "=" +
                                       *raw + "' is out of range");
    }
    if (i == 0)
        return util::Status::error("codec parameter '" + key + "=" + *raw +
                                   "' is not a size");
    int shift = 0;
    if (i + 1 == raw->size()) {
        switch (std::tolower(static_cast<unsigned char>((*raw)[i]))) {
          case 'k': shift = 10; break;
          case 'm': shift = 20; break;
          case 'g': shift = 30; break;
          default:
            return util::Status::error("codec parameter '" + key + "=" +
                                       *raw + "' has an unknown suffix");
        }
    } else if (i != raw->size()) {
        return util::Status::error("codec parameter '" + key + "=" + *raw +
                                   "' is not a size");
    }
    if (value > (uint64_t(1) << 48) >> shift)
        return util::Status::error("codec parameter '" + key + "=" + *raw +
                                   "' is out of range");
    value <<= shift;
    if (value == 0)
        return util::Status::error("codec parameter '" + key + "=" + *raw +
                                   "' must be positive");
    return static_cast<size_t>(value);
}

CodecRegistry::CodecRegistry()
{
    add("bwc", statelessFactory(std::make_shared<BwcCodec>()));
    add("lzh", statelessFactory(std::make_shared<LzhCodec>()));
    add("store", statelessFactory(std::make_shared<StoreCodec>()));
}

CodecRegistry &
CodecRegistry::instance()
{
    static CodecRegistry registry;
    return registry;
}

void
CodecRegistry::add(const std::string &name, Factory factory)
{
    std::lock_guard<std::mutex> lock(mutex_);
    factories_[name] = std::move(factory);
}

bool
CodecRegistry::has(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return factories_.count(name) != 0;
}

std::vector<std::string>
CodecRegistry::names() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto &[name, factory] : factories_)
        out.push_back(name);
    return out;
}

util::StatusOr<ConfiguredCodec>
CodecRegistry::create(const std::string &spec) const
{
    auto parsed = CodecSpec::parse(spec);
    if (!parsed.ok())
        return parsed.status();
    return create(parsed.value());
}

util::StatusOr<ConfiguredCodec>
CodecRegistry::create(const CodecSpec &spec) const
{
    Factory factory;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = factories_.find(spec.name);
        if (it == factories_.end())
            return util::Status::error("unknown codec: " + spec.name);
        factory = it->second;
    }

    ConfiguredCodec out;
    out.spec = spec.toString();

    // The `block=` framing parameter is common to every codec; strip it
    // before handing the rest to the factory.
    auto block = spec.sizeParam("block", 0);
    if (!block.ok())
        return block.status();
    out.block_size = block.value();

    CodecSpec rest;
    rest.name = spec.name;
    for (const auto &kv : spec.params) {
        if (kv.first != "block")
            rest.params.push_back(kv);
    }

    auto codec = factory(rest);
    if (!codec.ok())
        return codec.status();
    out.codec = codec.take();
    util::Status fits = checkBlockSize(*out.codec, out.block_size);
    if (!fits.ok())
        return fits;
    return out;
}

ConfiguredCodec
makeCodec(const std::string &spec)
{
    auto cc = CodecRegistry::instance().create(spec);
    if (!cc.ok())
        util::raise(cc.status().message());
    return cc.take();
}

const Codec &
codecByName(const std::string &name)
{
    // Cache default-configured instances so references stay valid for
    // the process lifetime, matching the old hardcoded-singleton
    // behaviour this shim replaces (including its concurrent-lookup
    // safety, hence the lock).
    static std::mutex mutex;
    static std::map<std::string, ConfiguredCodec> cache;
    std::lock_guard<std::mutex> lock(mutex);
    auto it = cache.find(name);
    if (it == cache.end()) {
        CodecSpec spec;
        spec.name = name;
        auto cc = CodecRegistry::instance().create(spec);
        if (!cc.ok())
            util::raise(cc.status().message());
        it = cache.emplace(name, cc.take()).first;
    }
    return *it->second.codec;
}

} // namespace atc::comp
