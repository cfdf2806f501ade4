/**
 * @file
 * Trace-serving daemon tests: wire-protocol codec round-trips,
 * served seek/range results byte-identical to direct AtcCursor reads
 * (lossless and lossy, across concurrent clients), the full negative
 * grid — truncated frames, oversized declared lengths, unknown
 * opcodes, bad versions, malformed bodies, bad handles, unknown
 * containers, out-of-range requests, mid-request disconnects — each
 * answered with the documented status code (or a clean close) and
 * never a crash, a flipped frame failing every served read over it, session reaping observed through STAT counters, the
 * shared decoded-block cache visible through AtcIndex::cacheStats(),
 * and the admission-control bound: with a sleepy codec making decodes
 * expensive, a seek client's p99 latency under a flooding pipelined
 * scanner stays well below the uncapped configuration's, while the
 * scanner's own results remain byte-identical to direct reads.
 */

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "atc/atc.hpp"
#include "atc/index.hpp"
#include "compress/codec.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "store_frames.hpp"
#include "util/rng.hpp"

namespace atc {
namespace {

using serve::Op;
using serve::ServeClient;
using serve::ServeOptions;
using serve::TraceServer;
using serve::Wire;

std::vector<uint64_t>
makeTrace(size_t n, uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<uint64_t> trace(n);
    uint64_t base = 0x10000000;
    for (auto &v : trace) {
        base += rng.below(4096);
        v = (rng.below(16) == 0) ? rng.next() >> 20 : base;
    }
    return trace;
}

core::AtcOptions
makeOptions(core::Mode mode, const std::string &codec = "bwc")
{
    core::AtcOptions opt;
    opt.mode = mode;
    // Small buffers/blocks so even modest traces span many frames.
    opt.pipeline.buffer_addrs = 777;
    opt.pipeline.codec = codec;
    opt.pipeline.codec_block = 4096;
    opt.lossy.interval_len = 1000;
    opt.lossy.epsilon = 0.5;
    return opt;
}

core::MemoryStore
writeContainer(const std::vector<uint64_t> &trace,
               const core::AtcOptions &opt)
{
    core::MemoryStore store;
    core::AtcWriter writer(store, opt);
    writer.write(trace.data(), trace.size());
    writer.close();
    return store;
}

/** Start a server over @p store as container "t"; gtest-fails on error. */
void
startServer(TraceServer &server, core::MemoryStore &store)
{
    ASSERT_TRUE(server.addContainer("t", store).ok());
    util::Status st = server.start();
    ASSERT_TRUE(st.ok()) << st.message();
    ASSERT_NE(server.port(), 0);
}

ServeClient
connectOrDie(const TraceServer &server)
{
    auto conn = ServeClient::connect("127.0.0.1", server.port());
    EXPECT_TRUE(conn.ok()) << conn.status().message();
    return conn.take();
}

// --------------------------------------------------- protocol codecs

TEST(Protocol, RequestRoundTripsEveryOpcode)
{
    serve::Request reqs[7];
    reqs[0].op = Op::Ping;
    reqs[1].op = Op::Open;
    reqs[1].name = "trace-a";
    reqs[2].op = Op::Seek;
    reqs[2].handle = 7;
    reqs[2].begin = 123456789;
    reqs[2].count = 4096;
    reqs[3].op = Op::ReadRange;
    reqs[3].handle = 9;
    reqs[3].begin = 1;
    reqs[3].end = 1000001;
    reqs[4].op = Op::Close;
    reqs[4].handle = 3;
    reqs[5].op = Op::Shutdown;
    reqs[6].op = Op::Metrics;

    uint32_t id = 100;
    for (serve::Request &req : reqs) {
        req.request_id = id++;
        std::vector<uint8_t> frame;
        serve::encodeRequest(req, frame);
        ASSERT_GE(frame.size(), 4u + serve::kHeaderLen);
        EXPECT_EQ(serve::getU32(frame.data()), frame.size() - 4);

        serve::Request out;
        std::string err;
        Wire verdict = serve::parseRequest(frame.data() + 4,
                                           frame.size() - 4, out, err);
        ASSERT_EQ(verdict, Wire::kOk) << err;
        EXPECT_EQ(out.op, req.op);
        EXPECT_EQ(out.request_id, req.request_id);
        EXPECT_EQ(out.handle, req.handle);
        EXPECT_EQ(out.begin, req.begin);
        EXPECT_EQ(out.end, req.end);
        EXPECT_EQ(out.count, req.count);
        EXPECT_EQ(out.name, req.name);
    }
}

TEST(Protocol, MalformedRequestsGetTheDocumentedVerdicts)
{
    serve::Request out;
    std::string err;

    // Too short for a header.
    uint8_t tiny[4] = {1, 0, 0, 0};
    EXPECT_EQ(serve::parseRequest(tiny, sizeof(tiny), out, err),
              Wire::kBadRequest);

    // Wrong version.
    serve::Request ping;
    ping.op = Op::Ping;
    ping.request_id = 5;
    std::vector<uint8_t> frame;
    serve::encodeRequest(ping, frame);
    frame[4] = serve::kProtocolVersion + 1;
    EXPECT_EQ(serve::parseRequest(frame.data() + 4, frame.size() - 4,
                                  out, err),
              Wire::kBadVersion);
    EXPECT_EQ(out.request_id, 5u) << "errors must echo the request id";

    // Unknown opcode.
    frame[4] = serve::kProtocolVersion;
    frame[5] = 99;
    EXPECT_EQ(serve::parseRequest(frame.data() + 4, frame.size() - 4,
                                  out, err),
              Wire::kUnknownOp);

    // SEEK with a short body.
    serve::Request seek;
    seek.op = Op::Seek;
    seek.handle = 1;
    frame.clear();
    serve::encodeRequest(seek, frame);
    frame.pop_back();
    EXPECT_EQ(serve::parseRequest(frame.data() + 4, frame.size() - 4,
                                  out, err),
              Wire::kBadRequest);

    // OPEN whose name_len disagrees with the payload.
    serve::Request open;
    open.op = Op::Open;
    open.name = "abc";
    frame.clear();
    serve::encodeRequest(open, frame);
    frame[4 + serve::kHeaderLen] = 200; // name_len lies
    EXPECT_EQ(serve::parseRequest(frame.data() + 4, frame.size() - 4,
                                  out, err),
              Wire::kBadRequest);
}

// ------------------------------------------------- served read parity

TEST(Serve, LosslessSeekAndRangeMatchDirectCursor)
{
    auto trace = makeTrace(60'000, 21);
    auto store =
        writeContainer(trace, makeOptions(core::Mode::Lossless));

    TraceServer server;
    startServer(server, store);
    ServeClient client = connectOrDie(server);

    auto remote = client.open("t");
    ASSERT_TRUE(remote.ok()) << remote.status().message();
    EXPECT_EQ(remote.value().records, trace.size());
    EXPECT_FALSE(remote.value().lossy);
    uint32_t handle = remote.value().handle;

    auto index = server.containerIndex("t");
    ASSERT_NE(index, nullptr);
    auto direct = index->cursor();

    const uint64_t probes[] = {0,     1,     776,   777,   778,
                               4095,  4096,  12345, 59'000, 59'999};
    for (uint64_t pos : probes) {
        std::vector<uint64_t> got;
        uint64_t actual = ~0ull;
        util::Status st = client.seekRead(handle, pos, 512, got, &actual);
        ASSERT_TRUE(st.ok()) << st.message();
        EXPECT_EQ(actual, pos); // lossless seeks are exact

        ASSERT_TRUE(direct->seek(pos).ok());
        std::vector<uint64_t> want(512);
        want.resize(direct->read(want.data(), want.size()));
        EXPECT_EQ(got, want) << "seek parity diverged at " << pos;
    }

    const std::pair<uint64_t, uint64_t> ranges[] = {
        {0, 1}, {0, 777}, {776, 780}, {4000, 9000}, {59'990, 60'000}};
    for (auto [begin, end] : ranges) {
        std::vector<uint64_t> got, want;
        ASSERT_TRUE(client.readRange(handle, begin, end, got).ok());
        ASSERT_TRUE(direct->readRange(begin, end, want).ok());
        EXPECT_EQ(got, want)
            << "range parity diverged at [" << begin << "," << end << ")";
    }

    EXPECT_TRUE(client.closeHandle(handle).ok());
    server.stop();
}

TEST(Serve, LossySeekReportsWhereItLanded)
{
    auto trace = makeTrace(40'000, 22);
    auto store = writeContainer(trace, makeOptions(core::Mode::Lossy));

    TraceServer server;
    startServer(server, store);
    ServeClient client = connectOrDie(server);

    auto remote = client.open("t");
    ASSERT_TRUE(remote.ok()) << remote.status().message();
    EXPECT_TRUE(remote.value().lossy);
    uint32_t handle = remote.value().handle;

    auto direct = server.containerIndex("t")->cursor();
    for (uint64_t pos : {0ull, 999ull, 1000ull, 1500ull, 39'999ull}) {
        std::vector<uint64_t> got;
        uint64_t actual = 0;
        ASSERT_TRUE(
            client.seekRead(handle, pos, 256, got, &actual).ok());

        ASSERT_TRUE(direct->seek(pos).ok());
        EXPECT_EQ(actual, direct->tell())
            << "landing position diverged at " << pos;
        std::vector<uint64_t> want(256);
        want.resize(direct->read(want.data(), want.size()));
        EXPECT_EQ(got, want);
    }
    server.stop();
}

TEST(Serve, ConcurrentClientsStayByteIdentical)
{
    auto trace = makeTrace(50'000, 23);
    auto store =
        writeContainer(trace, makeOptions(core::Mode::Lossless));

    ServeOptions opt;
    opt.threads = 4;
    TraceServer server(opt);
    startServer(server, store);

    auto index = server.containerIndex("t");
    constexpr int kClients = 8;
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            auto conn =
                ServeClient::connect("127.0.0.1", server.port());
            if (!conn.ok()) {
                ++failures;
                return;
            }
            ServeClient client = conn.take();
            auto remote = client.open("t");
            if (!remote.ok()) {
                ++failures;
                return;
            }
            auto direct = index->cursor();
            util::Rng rng(1000 + c);
            for (int i = 0; i < 25; ++i) {
                uint64_t begin = rng.below(trace.size() - 1);
                uint64_t end =
                    std::min<uint64_t>(begin + 1 + rng.below(3000),
                                       trace.size());
                std::vector<uint64_t> got, want;
                if (!client
                         .readRange(remote.value().handle, begin, end,
                                    got)
                         .ok() ||
                    !direct->readRange(begin, end, want).ok() ||
                    got != want) {
                    ++failures;
                    return;
                }
            }
        });
    }
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(failures.load(), 0);

    serve::ServerStats stats = server.stats();
    EXPECT_EQ(stats.connections_accepted, kClients);
    EXPECT_EQ(stats.requests_read_range, kClients * 25u);
    server.stop();
}

// ----------------------------------------------------- error handling

TEST(Serve, ErrorStatusGrid)
{
    auto trace = makeTrace(10'000, 24);
    auto store =
        writeContainer(trace, makeOptions(core::Mode::Lossless));

    ServeOptions opt;
    opt.max_range_records = 4096;
    TraceServer server(opt);
    startServer(server, store);
    ServeClient client = connectOrDie(server);

    // OPEN of an unserved name.
    auto missing = client.open("nope");
    ASSERT_FALSE(missing.ok());
    EXPECT_NE(missing.status().message().find("not_found"),
              std::string::npos)
        << missing.status().message();

    // Operations on a never-issued handle.
    std::vector<uint64_t> out;
    util::Status st = client.seekRead(42, 0, 10, out);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("bad_handle"), std::string::npos);

    auto remote = client.open("t");
    ASSERT_TRUE(remote.ok());
    uint32_t handle = remote.value().handle;

    // Seek past the end.
    st = client.seekRead(handle, trace.size() + 1, 10, out);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("out_of_range"), std::string::npos);

    // begin > end.
    st = client.readRange(handle, 100, 50, out);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("out_of_range"), std::string::npos);

    // Range past the end (small enough to clear the size pre-check,
    // so the end-bound check is what fires).
    st = client.readRange(handle, trace.size() - 10, trace.size() + 1,
                          out);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("out_of_range"), std::string::npos);

    // Range beyond max_range_records.
    st = client.readRange(handle, 0, 5000, out);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("too_large"), std::string::npos);

    // Close twice.
    ASSERT_TRUE(client.closeHandle(handle).ok());
    st = client.closeHandle(handle);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("bad_handle"), std::string::npos);

    // The connection survived every error above.
    EXPECT_TRUE(client.ping().ok());
    server.stop();
}

/**
 * A "store"-codec container whose first transform-buffer length varint
 * is overwritten in place with 2^61 + 1, its frame CRC restamped: the
 * index opens and the frame passes its check, but decoding the buffer
 * once killed the daemon.
 */
core::MemoryStore
craftedBufferLength(const std::vector<uint64_t> &trace)
{
    core::AtcOptions opt = makeOptions(core::Mode::Lossless, "store");
    core::MemoryStore base = writeContainer(trace, opt);
    std::vector<uint8_t> chunk = base.chunkBytes(0);
    util::MemorySource header(chunk.data(), chunk.size());
    util::readVarint(header); // raw size + 1
    util::readVarint(header); // compressed size
    size_t at = chunk.size() - header.remaining();
    std::vector<uint8_t> varint;
    util::VectorSink sink(varint);
    util::writeVarint(sink, (uint64_t(1) << 61) + 1);
    std::copy(varint.begin(), varint.end(), chunk.begin() + at);
    test::restampStoreCrcs(chunk);

    core::MemoryStore out;
    auto info = out.createInfo();
    info->write(base.infoBytes().data(), base.infoBytes().size());
    auto csink = out.createChunk(0);
    csink->write(chunk.data(), chunk.size());
    return out;
}

TEST(Serve, CraftedContainerFailsOneRequestNotTheDaemon)
{
    auto trace = makeTrace(5'000, 25);
    auto good = writeContainer(trace, makeOptions(core::Mode::Lossless));
    auto bad = craftedBufferLength(trace);

    TraceServer server;
    ASSERT_TRUE(server.addContainer("bad", bad).ok());
    startServer(server, good);

    ServeClient hostile = connectOrDie(server);
    auto remote = hostile.open("bad");
    ASSERT_TRUE(remote.ok()) << remote.status().message();
    std::vector<uint64_t> out;
    util::Status st = hostile.readRange(remote.value().handle, 0, 100, out);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("internal"), std::string::npos)
        << st.message();

    // A second client is served as if nothing happened.
    ServeClient other = connectOrDie(server);
    auto healthy = other.open("t");
    ASSERT_TRUE(healthy.ok()) << healthy.status().message();
    ASSERT_TRUE(other.readRange(healthy.value().handle, 0, 100, out).ok());
    EXPECT_TRUE(std::equal(out.begin(), out.end(), trace.begin()));
    EXPECT_TRUE(hostile.ping().ok());
    server.stop();
}

TEST(Serve, FlippedFrameFailsEveryServedReadOverIt)
{
    // A "store" frame has no codec checksum; only its CRC-32 in the
    // frame index covers it. With one payload bit flipped, a served
    // READ_RANGE or SEEK over the frame returns an error naming the
    // CRC, never records.
    auto trace = makeTrace(20'000, 26);
    auto good =
        writeContainer(trace, makeOptions(core::Mode::Lossless, "store"));
    std::vector<uint8_t> chunk = good.chunkBytes(0);
    const comp::StreamLayout layout = test::layoutOf(chunk);
    const size_t f = layout.frames.size() / 2;
    const uint64_t at = layout.frames[f].comp_size / 2;
    chunk[test::payloadStart(layout, f) + at] ^= 0x10;
    core::MemoryStore bad;
    {
        auto info = bad.createInfo();
        info->write(good.infoBytes().data(), good.infoBytes().size());
        auto csink = bad.createChunk(0);
        csink->write(chunk.data(), chunk.size());
    }
    // The transform buffer holding the flipped byte: 777 records of
    // varint(777) + 8 * 777 bytes each.
    const uint64_t buffer_bytes = util::varintLen(777) + 8 * 777;
    const uint64_t first = (layout.raw_starts[f] + at) / buffer_bytes * 777;

    TraceServer server;
    startServer(server, bad);
    ServeClient client = connectOrDie(server);
    auto remote = client.open("t");
    ASSERT_TRUE(remote.ok()) << remote.status().message();
    const uint32_t handle = remote.value().handle;
    std::vector<uint64_t> out;
    for (auto [begin, end] : {std::pair<uint64_t, uint64_t>{first, first + 1},
                              {first + 700, first + 800},
                              {0, trace.size()}}) {
        util::Status st = client.readRange(handle, begin, end, out);
        ASSERT_FALSE(st.ok()) << begin;
        EXPECT_NE(st.message().find("frame CRC mismatch"), std::string::npos)
            << st.message();
    }
    util::Status st = client.seekRead(handle, first, 100, out);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("frame CRC mismatch"), std::string::npos)
        << st.message();
    EXPECT_TRUE(client.ping().ok());
    server.stop();
}

/** Build a raw frame: length prefix + header + body. */
std::vector<uint8_t>
rawFrame(uint8_t version, uint8_t opcode, uint16_t flags, uint32_t id,
         const std::vector<uint8_t> &body)
{
    std::vector<uint8_t> out;
    serve::putU32(out,
                  static_cast<uint32_t>(serve::kHeaderLen + body.size()));
    out.push_back(version);
    out.push_back(opcode);
    serve::putU16(out, flags);
    serve::putU32(out, id);
    out.insert(out.end(), body.begin(), body.end());
    return out;
}

/** Read one response frame off @p sock; gtest-asserts on transport. */
serve::Response
readResponse(const serve::Socket &sock)
{
    uint8_t len_bytes[4];
    std::string err;
    EXPECT_EQ(sock.readFull(len_bytes, 4, &err), serve::IoResult::kOk)
        << err;
    uint32_t len = serve::getU32(len_bytes);
    EXPECT_GE(len, serve::kHeaderLen);
    EXPECT_LE(len, 1u << 20);
    std::vector<uint8_t> payload(len);
    EXPECT_EQ(sock.readFull(payload.data(), len, &err),
              serve::IoResult::kOk)
        << err;
    serve::Response resp;
    EXPECT_TRUE(serve::parseResponse(payload.data(), payload.size(),
                                     resp));
    return resp;
}

TEST(Serve, HostileFramesNeverCrashTheServer)
{
    auto trace = makeTrace(5'000, 25);
    auto store =
        writeContainer(trace, makeOptions(core::Mode::Lossless));

    TraceServer server;
    startServer(server, store);
    std::string err;

    { // Oversized declared length: kTooLarge, then the server hangs up.
        auto sock = serve::connectTo("127.0.0.1", server.port());
        ASSERT_TRUE(sock.ok());
        std::vector<uint8_t> evil;
        serve::putU32(evil, serve::kMaxRequestPayload + 1);
        // Enough header bytes that the error can echo our request id.
        evil.push_back(serve::kProtocolVersion);
        evil.push_back(0);
        serve::putU16(evil, 0);
        serve::putU32(evil, 77);
        ASSERT_EQ(sock.value().writeFull(evil.data(), evil.size(), &err),
                  serve::IoResult::kOk);
        serve::Response resp = readResponse(sock.value());
        EXPECT_EQ(resp.status, Wire::kTooLarge);
        EXPECT_EQ(resp.request_id, 77u);
        uint8_t byte;
        EXPECT_EQ(sock.value().readFull(&byte, 1, &err, 5000),
                  serve::IoResult::kEof)
            << "untrusted framing must close the connection";
    }

    { // Unknown opcode: kUnknownOp, and the connection survives.
        auto sock = serve::connectTo("127.0.0.1", server.port());
        ASSERT_TRUE(sock.ok());
        auto evil = rawFrame(serve::kProtocolVersion, 99, 0, 5, {});
        ASSERT_EQ(sock.value().writeFull(evil.data(), evil.size(), &err),
                  serve::IoResult::kOk);
        serve::Response resp = readResponse(sock.value());
        EXPECT_EQ(resp.status, Wire::kUnknownOp);
        EXPECT_EQ(resp.request_id, 5u);

        auto ping = rawFrame(serve::kProtocolVersion,
                             uint8_t(Op::Ping), 0, 6, {});
        ASSERT_EQ(sock.value().writeFull(ping.data(), ping.size(), &err),
                  serve::IoResult::kOk);
        resp = readResponse(sock.value());
        EXPECT_EQ(resp.status, Wire::kOk);
        EXPECT_EQ(resp.request_id, 6u);
    }

    { // Bad version: kBadVersion, then close.
        auto sock = serve::connectTo("127.0.0.1", server.port());
        ASSERT_TRUE(sock.ok());
        auto evil = rawFrame(serve::kProtocolVersion + 1,
                             uint8_t(Op::Ping), 0, 8, {});
        ASSERT_EQ(sock.value().writeFull(evil.data(), evil.size(), &err),
                  serve::IoResult::kOk);
        serve::Response resp = readResponse(sock.value());
        EXPECT_EQ(resp.status, Wire::kBadVersion);
        uint8_t byte;
        EXPECT_EQ(sock.value().readFull(&byte, 1, &err, 5000),
                  serve::IoResult::kEof);
    }

    { // Malformed body (SEEK with 3 body bytes): kBadRequest + close.
        auto sock = serve::connectTo("127.0.0.1", server.port());
        ASSERT_TRUE(sock.ok());
        auto evil = rawFrame(serve::kProtocolVersion,
                             uint8_t(Op::Seek), 0, 9, {1, 2, 3});
        ASSERT_EQ(sock.value().writeFull(evil.data(), evil.size(), &err),
                  serve::IoResult::kOk);
        serve::Response resp = readResponse(sock.value());
        EXPECT_EQ(resp.status, Wire::kBadRequest);
        uint8_t byte;
        EXPECT_EQ(sock.value().readFull(&byte, 1, &err, 5000),
                  serve::IoResult::kEof);
    }

    { // Truncated frame then mid-request disconnect: just a reap.
        auto sock = serve::connectTo("127.0.0.1", server.port());
        ASSERT_TRUE(sock.ok());
        auto frame = rawFrame(serve::kProtocolVersion,
                              uint8_t(Op::Open), 0, 10,
                              {5, 0, 'a', 'b', 'c', 'd', 'e'});
        ASSERT_EQ(sock.value().writeFull(frame.data(),
                                         frame.size() - 3, &err),
                  serve::IoResult::kOk);
        sock.value().close();
    }

    // After all of the above the server still serves real clients.
    ServeClient client = connectOrDie(server);
    EXPECT_TRUE(client.ping().ok());
    auto remote = client.open("t");
    ASSERT_TRUE(remote.ok());
    std::vector<uint64_t> got;
    EXPECT_TRUE(
        client.readRange(remote.value().handle, 0, 100, got).ok());
    EXPECT_EQ(got.size(), 100u);

    serve::ServerStats stats = server.stats();
    EXPECT_GE(stats.protocol_errors, 4u);
    server.stop();
}

TEST(Serve, DisconnectedSessionsAreReaped)
{
    auto trace = makeTrace(5'000, 26);
    auto store =
        writeContainer(trace, makeOptions(core::Mode::Lossless));

    TraceServer server;
    startServer(server, store);

    {
        ServeClient a = connectOrDie(server);
        ServeClient b = connectOrDie(server);
        ASSERT_TRUE(a.ping().ok());
        ASSERT_TRUE(b.ping().ok());
        a.disconnect();
        b.disconnect();
    }

    // The I/O thread reaps on its next poll wakeup; give it a moment.
    bool reaped = false;
    for (int i = 0; i < 200 && !reaped; ++i) {
        serve::ServerStats stats = server.stats();
        reaped = stats.sessions_active == 0 && stats.disconnects >= 2;
        if (!reaped)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(reaped) << "closed sessions were not reaped";
    server.stop();
}

TEST(Serve, StatExposesCountersAndCacheStats)
{
    auto trace = makeTrace(20'000, 27);
    auto store =
        writeContainer(trace, makeOptions(core::Mode::Lossless));

    TraceServer server;
    startServer(server, store);
    ServeClient client = connectOrDie(server);

    auto remote = client.open("t");
    ASSERT_TRUE(remote.ok());
    std::vector<uint64_t> out;
    // Same range twice: the second decode must come from the shared
    // block cache.
    ASSERT_TRUE(
        client.readRange(remote.value().handle, 1000, 3000, out).ok());
    ASSERT_TRUE(
        client.readRange(remote.value().handle, 1000, 3000, out).ok());

    auto text = client.statText();
    ASSERT_TRUE(text.ok()) << text.status().message();
    auto stat = ServeClient::parseStat(text.value());
    EXPECT_EQ(stat["server.requests.open"], 1u);
    EXPECT_EQ(stat["server.requests.read_range"], 2u);
    EXPECT_EQ(stat["server.records_served"], 4000u);
    EXPECT_EQ(stat["container.t.records"], trace.size());
    EXPECT_GE(stat["container.t.cache.insertions"], 1u);
    EXPECT_GE(stat["container.t.cache.hits"], 1u)
        << "repeated range did not hit the shared cache";

    // The same counters through the public C++ surface.
    core::BlockCacheStats cs = server.containerIndex("t")->cacheStats();
    EXPECT_EQ(cs.hits, stat["container.t.cache.hits"]);
    EXPECT_GE(cs.bytes, 1u);
    server.stop();
}

TEST(Serve, MetricsOpRoundTripsTheRegistrySnapshot)
{
    auto trace = makeTrace(20'000, 29);
    auto store =
        writeContainer(trace, makeOptions(core::Mode::Lossless));

    // kDebug also drives the structured-logging path (one stderr line
    // per request) under the sanitizer jobs running this binary.
    ServeOptions opt;
    opt.log_level = serve::LogLevel::kDebug;
    TraceServer server(opt);
    startServer(server, store);
    ServeClient client = connectOrDie(server);

    auto remote = client.open("t");
    ASSERT_TRUE(remote.ok());
    std::vector<uint64_t> out;
    ASSERT_TRUE(
        client.readRange(remote.value().handle, 500, 2500, out).ok());

    auto text = client.metricsText();
    ASSERT_TRUE(text.ok()) << text.status().message();
    ASSERT_EQ(text.value().rfind("atc_metrics 1\n", 0), 0u);
    std::map<std::string, int64_t> parsed;
    ASSERT_TRUE(obs::parseMetricsText(text.value(), parsed));

    // Round-trip parity: the wire bytes are the shared text encoding
    // of the process registry, so re-encoding the registry now must
    // yield a superset of the parsed keys (metrics are never removed,
    // non-empty histogram buckets never empty again) with monotone
    // counter values.
    std::map<std::string, int64_t> now;
    ASSERT_TRUE(obs::parseMetricsText(
        obs::snapshotToText(obs::Registry::global().snapshot()), now));
    for (const auto &[key, value] : parsed)
        EXPECT_TRUE(now.count(key) != 0)
            << key << " served but absent from the local registry";
    EXPECT_GE(parsed["serve.req.read_range_us.count"], 1);
    EXPECT_GE(parsed["serve.req.open_us.count"], 1);
    EXPECT_GE(parsed["cache.misses"], 1);
    EXPECT_GE(now["serve.req.read_range_us.count"],
              parsed["serve.req.read_range_us.count"]);

    // The new STAT keys ride along: the METRICS request was counted,
    // uptime is reported, and nothing heavy is in flight by now.
    auto stat_text = client.statText();
    ASSERT_TRUE(stat_text.ok());
    auto stat = ServeClient::parseStat(stat_text.value());
    EXPECT_EQ(stat["server.requests.metrics"], 1u);
    EXPECT_EQ(stat["server.inflight_heavy"], 0u);
    EXPECT_EQ(stat.count("server.uptime_seconds"), 1u);
    server.stop();
}

TEST(Serve, ShutdownOpcodeStopsTheServer)
{
    auto trace = makeTrace(2'000, 28);
    auto store =
        writeContainer(trace, makeOptions(core::Mode::Lossless));

    TraceServer server;
    startServer(server, store);
    ServeClient client = connectOrDie(server);
    EXPECT_FALSE(server.waitFor(0));
    ASSERT_TRUE(client.shutdownServer().ok());
    EXPECT_TRUE(server.waitFor(5000));
    server.stop();
}

// ------------------------------------------- admission-control bound

/** Store clone whose block decodes cost wall-clock time, so worker
 *  occupancy — not decode speed — dominates served latency. */
class SleepyStoreCodec : public comp::StoreCodec
{
  public:
    std::string name() const override { return "zzz"; }

    void
    decompressBlock(util::ByteSource &in, size_t raw_size,
                    std::vector<uint8_t> &out) const override
    {
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
        comp::StoreCodec::decompressBlock(in, raw_size, out);
    }
};

void
registerSleepyCodec()
{
    static bool once = [] {
        comp::CodecRegistry::instance().add(
            "zzz", [](const comp::CodecSpec &)
                       -> util::StatusOr<
                           std::shared_ptr<const comp::Codec>> {
                return std::shared_ptr<const comp::Codec>(
                    std::make_shared<SleepyStoreCodec>());
            });
        return true;
    }();
    (void)once;
}

struct FloodOutcome
{
    double seek_p99_ms = 0;
    uint64_t admission_deferred = 0;
};

/**
 * One scanner pipelines @p kScans READ_RANGEs while a seek client
 * measures per-request latency. @return the seek client's p99 and the
 * server's deferred-admission count; gtest-fails on any parity or
 * transport error.
 */
FloodOutcome
runFlood(core::MemoryStore &store, const std::vector<uint64_t> &trace,
         uint32_t max_inflight)
{
    using Clock = std::chrono::steady_clock;
    constexpr int kScans = 24;
    constexpr uint64_t kScanLen = 4000;
    constexpr int kSeeks = 24;

    ServeOptions opt;
    opt.threads = 2;
    opt.cache_bytes = 0; // every range decodes; sleeps dominate
    opt.max_inflight_per_client = max_inflight;
    opt.max_inflight_records_per_client = uint64_t(max_inflight) << 14;
    TraceServer server(opt);
    startServer(server, store);

    ServeClient scanner = connectOrDie(server);
    ServeClient seeker = connectOrDie(server);
    auto scan_handle = scanner.open("t");
    auto seek_handle = seeker.open("t");
    EXPECT_TRUE(scan_handle.ok());
    EXPECT_TRUE(seek_handle.ok());

    std::atomic<bool> scanner_done{false};
    std::thread flood([&] {
        // Pipeline everything, then drain; each response is checked
        // byte-for-byte against a direct cursor read.
        std::vector<std::pair<uint32_t, uint64_t>> sent; // id -> begin
        for (int i = 0; i < kScans; ++i) {
            uint64_t begin = (uint64_t(i) * 1777) %
                             (trace.size() - kScanLen);
            auto id = scanner.sendReadRange(scan_handle.value().handle,
                                            begin, begin + kScanLen);
            if (!id.ok()) {
                ADD_FAILURE() << id.status().message();
                break;
            }
            sent.emplace_back(id.value(), begin);
        }
        auto direct = server.containerIndex("t")->cursor();
        for (size_t i = 0; i < sent.size(); ++i) {
            serve::ClientResponse resp;
            util::Status st = scanner.receive(resp);
            if (!st.ok()) {
                ADD_FAILURE() << st.message();
                break;
            }
            EXPECT_EQ(resp.status, Wire::kOk) << resp.error;
            auto it = std::find_if(sent.begin(), sent.end(),
                                   [&](const auto &p) {
                                       return p.first ==
                                              resp.request_id;
                                   });
            ASSERT_NE(it, sent.end());
            std::vector<uint64_t> want;
            ASSERT_TRUE(direct
                            ->readRange(it->second,
                                        it->second + kScanLen, want)
                            .ok());
            EXPECT_EQ(resp.records, want)
                << "scanner parity diverged under flood";
        }
        scanner_done = true;
    });

    // Let the flood land first so the seeker always competes with it.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));

    std::vector<double> lat_ms;
    lat_ms.reserve(kSeeks);
    for (int i = 0; i < kSeeks; ++i) {
        uint64_t pos = (uint64_t(i) * 997) % trace.size();
        std::vector<uint64_t> got;
        auto t0 = Clock::now();
        util::Status st =
            seeker.seekRead(seek_handle.value().handle, pos, 64, got);
        auto t1 = Clock::now();
        EXPECT_TRUE(st.ok()) << st.message();
        lat_ms.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
        if (scanner_done)
            break; // flood over; later samples measure an idle server
    }
    flood.join();

    std::sort(lat_ms.begin(), lat_ms.end());
    FloodOutcome out;
    out.seek_p99_ms = lat_ms[(lat_ms.size() * 99) / 100];
    out.admission_deferred = server.stats().admission_deferred;
    server.stop();
    return out;
}

TEST(Serve, AdmissionControlBoundsAHostileScanner)
{
    registerSleepyCodec();
    auto trace = makeTrace(50'000, 29);
    auto store =
        writeContainer(trace, makeOptions(core::Mode::Lossless, "zzz"));

    // Uncapped: the scanner's pipelined ranges occupy every worker and
    // the seeker queues behind the whole flood.
    FloodOutcome uncapped = runFlood(store, trace, 64);
    // Capped: at most one scanner range is in flight, so the seeker
    // waits for at most a request or two.
    FloodOutcome capped = runFlood(store, trace, 1);

    EXPECT_GT(capped.admission_deferred, 0u)
        << "the cap never actually deferred the scanner";
    EXPECT_LT(capped.seek_p99_ms * 2, uncapped.seek_p99_ms)
        << "capped p99 " << capped.seek_p99_ms
        << "ms is not clearly below uncapped p99 "
        << uncapped.seek_p99_ms << "ms";
    // And an absolute sanity bound: with the scanner capped the seeker
    // competes with at most one 4000-record sleepy decode at a time.
    EXPECT_LT(capped.seek_p99_ms, 1000.0);
}

} // namespace
} // namespace atc
