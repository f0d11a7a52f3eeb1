// Frame protocol tests: incremental reassembly across arbitrary feed
// boundaries, truncation detection (the supervisor's signal that a child
// died mid-write), corrupt length rejection, and real-pipe round trips
// including the deliberately torn frames the pipe_truncate fault produces.
#include "common/ipc.h"

#include <gtest/gtest.h>

#ifndef _WIN32
#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <unistd.h>
#endif

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

namespace rlccd {
namespace {

std::string frame_bytes(FrameType type, std::string_view payload) {
  std::string out;
  ipc_append_pod(out, static_cast<std::uint8_t>(type));
  ipc_append_pod(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  return out;
}

TEST(FrameDecoder, ReassemblesFramesAcrossByteByByteFeeds) {
  const std::string stream = frame_bytes(FrameType::kHeartbeat, "") +
                             frame_bytes(FrameType::kResult, "payload");
  FrameDecoder dec;
  std::vector<Frame> frames;
  Frame f;
  for (char c : stream) {
    dec.feed(&c, 1);
    while (dec.next(f)) frames.push_back(f);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, static_cast<std::uint8_t>(FrameType::kHeartbeat));
  EXPECT_TRUE(frames[0].payload.empty());
  EXPECT_EQ(frames[1].type, static_cast<std::uint8_t>(FrameType::kResult));
  EXPECT_EQ(frames[1].payload, "payload");
  EXPECT_FALSE(dec.mid_frame()) << "stream ended on a frame boundary";
}

TEST(FrameDecoder, FlagsStreamEndingMidFrame) {
  const std::string full = frame_bytes(FrameType::kResult, "0123456789");
  FrameDecoder dec;
  dec.feed(full.data(), full.size() - 4);  // lose the last 4 payload bytes
  Frame f;
  EXPECT_FALSE(dec.next(f));
  EXPECT_TRUE(dec.mid_frame()) << "a truncated frame must be detectable";
}

TEST(FrameDecoder, HeaderAloneIsMidFrame) {
  const std::string full = frame_bytes(FrameType::kResult, "abc");
  FrameDecoder dec;
  dec.feed(full.data(), 3);  // not even the whole 5-byte header
  Frame f;
  EXPECT_FALSE(dec.next(f));
  EXPECT_TRUE(dec.mid_frame());
}

TEST(FrameDecoder, RejectsOversizedLengthPrefix) {
  std::string bytes;
  ipc_append_pod(bytes, static_cast<std::uint8_t>(FrameType::kResult));
  ipc_append_pod(bytes,
                 static_cast<std::uint32_t>(FrameDecoder::kMaxPayload + 1));
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame f;
  EXPECT_FALSE(dec.next(f));
  ASSERT_FALSE(dec.error().ok());
  EXPECT_EQ(dec.error().code(), StatusCode::kCorrupt);
}

TEST(IpcCodec, PodStringAndFloatVecRoundTrip) {
  std::string buf;
  const std::string binary("a\0b\xff", 4);  // embedded NUL must survive
  ipc_append_pod(buf, std::uint64_t{0xDEADBEEFCAFEull});
  ipc_append_string(buf, binary);
  ipc_append_float_vec(buf, {1.5f, -2.25f, 0.0f});

  std::size_t off = 0;
  std::uint64_t u = 0;
  std::string s;
  std::vector<float> v;
  ASSERT_TRUE(ipc_parse_pod(buf, off, u, "u").ok());
  ASSERT_TRUE(ipc_parse_string(buf, off, s, "s").ok());
  ASSERT_TRUE(ipc_parse_float_vec(buf, off, v, "v").ok());
  EXPECT_EQ(u, 0xDEADBEEFCAFEull);
  EXPECT_EQ(s, binary);
  EXPECT_EQ(v, (std::vector<float>{1.5f, -2.25f, 0.0f}));
  EXPECT_EQ(off, buf.size());

  // Parsing past the end is a corrupt Status naming the field, not a crash.
  std::uint32_t trailing = 0;
  Status bad = ipc_parse_pod(buf, off, trailing, "trailing");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.to_string().find("trailing"), std::string::npos);

  // A count larger than the bytes after it is corrupt before any resize;
  // a count of exactly the remaining bytes is fine.
  std::string counted;
  ipc_append_pod(counted, std::uint32_t{3});
  counted += "ab";
  std::size_t coff = 0;
  std::uint32_t n = 0;
  Status oversized = ipc_parse_count(counted, coff, n, "widget count");
  ASSERT_FALSE(oversized.ok());
  EXPECT_EQ(oversized.code(), StatusCode::kCorrupt);
  EXPECT_NE(oversized.to_string().find("widget count"), std::string::npos);
  counted += "c";
  coff = 0;
  ASSERT_TRUE(ipc_parse_count(counted, coff, n, "widget count").ok());
  EXPECT_EQ(n, 3u);
}

#ifndef _WIN32

TEST(IpcPipe, ReadAvailableDrainsNonblockingFdAndReportsBytes) {
  Pipe pipe;
  ASSERT_TRUE(pipe_create(pipe).ok());
  ASSERT_EQ(::fcntl(pipe.read_fd, F_SETFL, O_NONBLOCK), 0);

  const std::string full = frame_bytes(FrameType::kResult, "split payload");
  // First half: no complete frame yet, but the bytes must be counted (the
  // supervisor's heartbeat bookkeeping refreshes on bytes, not frames).
  ASSERT_EQ(::write(pipe.write_fd, full.data(), full.size() / 2),
            static_cast<ssize_t>(full.size() / 2));
  FrameDecoder dec;
  bool eof = false;
  std::size_t bytes = 0;
  ASSERT_TRUE(read_available(pipe.read_fd, dec, eof, &bytes).ok());
  EXPECT_EQ(bytes, full.size() / 2);
  EXPECT_FALSE(eof);
  Frame f;
  EXPECT_FALSE(dec.next(f));
  EXPECT_TRUE(dec.mid_frame());

  // Drained pipe: EAGAIN is a clean zero-byte return, not an error or EOF.
  ASSERT_TRUE(read_available(pipe.read_fd, dec, eof, &bytes).ok());
  EXPECT_EQ(bytes, 0u);
  EXPECT_FALSE(eof);

  // Second half completes the frame; closing the write end then yields EOF
  // with the decoder on a clean boundary.
  ASSERT_EQ(::write(pipe.write_fd, full.data() + full.size() / 2,
                    full.size() - full.size() / 2),
            static_cast<ssize_t>(full.size() - full.size() / 2));
  ::close(pipe.write_fd);
  ASSERT_TRUE(read_available(pipe.read_fd, dec, eof, &bytes).ok());
  ASSERT_TRUE(dec.next(f));
  EXPECT_EQ(f.payload, "split payload");
  ASSERT_TRUE(read_available(pipe.read_fd, dec, eof, &bytes).ok());
  EXPECT_TRUE(eof);
  EXPECT_FALSE(dec.mid_frame());
  ::close(pipe.read_fd);
}

namespace {
void ipc_noop_signal(int) {}
}  // namespace

TEST(IpcPipe, SignalsLandingMidFrameTearNeitherSide) {
  // A signal delivered while a frame is in flight makes read()/write()
  // return EINTR (the handler is installed without SA_RESTART); both
  // write_frame and read_available must retry so the frame lands whole.
  struct sigaction sa, old_sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = ipc_noop_signal;
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old_sa), 0);

  Pipe pipe;
  ASSERT_TRUE(pipe_create(pipe).ok());
  const std::string payload(1 << 20, 'y');  // far larger than the pipe buffer

  std::atomic<bool> done{false};
  std::thread writer([&]() {
    EXPECT_TRUE(write_frame(pipe.write_fd, FrameType::kResult, payload).ok());
    ::close(pipe.write_fd);
  });

  FrameDecoder dec;
  std::vector<Frame> frames;
  Frame f;
  std::thread reader([&]() {
    bool eof = false;
    while (!eof) {
      Status s = read_available(pipe.read_fd, dec, eof);
      ASSERT_TRUE(s.ok()) << s.to_string();
      while (dec.next(f)) frames.push_back(f);
    }
    done.store(true);
  });
  // Pummel both ends with signals while the megabyte frame squeezes through.
  std::thread pummel([&]() {
    while (!done.load()) {
      ::pthread_kill(writer.native_handle(), SIGUSR1);
      ::pthread_kill(reader.native_handle(), SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  // Join order matters: the pummel thread must stop before the threads it
  // signals are joined (pthread_kill on a joined thread is undefined).
  reader.join();
  pummel.join();
  writer.join();
  ::close(pipe.read_fd);
  ::sigaction(SIGUSR1, &old_sa, nullptr);

  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].payload.size(), payload.size());
  EXPECT_EQ(frames[0].payload, payload);
  EXPECT_FALSE(dec.mid_frame())
      << "EINTR mid-frame must not tear the stream";
}

TEST(IpcPipe, WriteFrameRoundTripsThroughARealPipe) {
  Pipe pipe;
  ASSERT_TRUE(pipe_create(pipe).ok());
  const std::string payload(100000, 'x');  // larger than PIPE_BUF
  // Writer thread: a 100 kB frame cannot sit in the pipe buffer whole.
  std::thread writer([&]() {
    EXPECT_TRUE(write_frame(pipe.write_fd, FrameType::kResult, payload).ok());
    ::close(pipe.write_fd);
  });
  FrameDecoder dec;
  char buf[4096];
  ssize_t n;
  std::vector<Frame> frames;
  Frame f;
  while ((n = ::read(pipe.read_fd, buf, sizeof(buf))) > 0) {
    dec.feed(buf, static_cast<std::size_t>(n));
    while (dec.next(f)) frames.push_back(f);
  }
  writer.join();
  ::close(pipe.read_fd);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].payload, payload);
  EXPECT_FALSE(dec.mid_frame());
}

TEST(IpcPipe, TruncatedWriteLeavesDecoderMidFrame) {
  Pipe pipe;
  ASSERT_TRUE(pipe_create(pipe).ok());
  const std::string payload = "the full payload that never fully arrives";
  ASSERT_TRUE(write_truncated_frame(pipe.write_fd, FrameType::kResult,
                                    payload, payload.size() / 2)
                  .ok());
  ::close(pipe.write_fd);
  FrameDecoder dec;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(pipe.read_fd, buf, sizeof(buf))) > 0) {
    dec.feed(buf, static_cast<std::size_t>(n));
  }
  ::close(pipe.read_fd);
  Frame f;
  EXPECT_FALSE(dec.next(f));
  EXPECT_TRUE(dec.mid_frame())
      << "header announced more bytes than the stream delivered";
}

#endif  // !_WIN32

}  // namespace
}  // namespace rlccd
