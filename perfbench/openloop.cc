#include "openloop.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <limits>
#include <map>
#include <thread>

#include "net/wire.h"
#include "util/random.h"

namespace wcsd::perfbench {
namespace {

constexpr size_t kHeaderBytes = sizeof(net::WireHeader);
constexpr float kInf = std::numeric_limits<float>::infinity();

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

int ConnectOne(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const uint8_t* data, size_t size) {
  while (size > 0) {
    ssize_t n = send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

bool RecvAll(int fd, uint8_t* data, size_t size) {
  while (size > 0) {
    ssize_t n = recv(fd, data, size, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

/// Blocking read of one whole frame into *payload.
bool ReadFrame(int fd, net::WireHeader* header, std::vector<uint8_t>* payload) {
  if (!RecvAll(fd, reinterpret_cast<uint8_t*>(header), kHeaderBytes)) {
    return false;
  }
  if (header->magic != net::kWireMagic ||
      header->payload_bytes > net::kMaxPayloadBytes) {
    return false;
  }
  payload->resize(header->payload_bytes);
  return RecvAll(fd, payload->data(), payload->size());
}

/// Cumulative run time (ms) of each thread of `pid`, keyed by tid.
std::map<int, double> TaskRuntimes(int pid) {
  std::map<int, double> out;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + e->d_name + "/sched");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("se.sum_exec_runtime", 0) == 0) {
        out[std::atoi(e->d_name)] =
            std::atof(line.substr(line.find(':') + 1).c_str());
        break;
      }
    }
  }
  closedir(d);
  return out;
}

/// The server thread that serves `fd`: the one whose run time grows most
/// over a burst of Health round trips. -1 when none can be told apart.
int ProbeOwner(int fd, int pid, int skip_tid) {
  std::map<int, double> before = TaskRuntimes(pid);
  std::vector<uint8_t> frame;
  std::vector<uint8_t> payload;
  net::WireHeader header{};
  for (int i = 0; i < 300; ++i) {
    frame.clear();
    net::AppendHealthRequest(&frame, static_cast<uint64_t>(i));
    if (!SendAll(fd, frame.data(), frame.size()) ||
        !ReadFrame(fd, &header, &payload)) {
      return -1;
    }
  }
  std::map<int, double> after = TaskRuntimes(pid);
  int owner = -1;
  double best = 0;
  for (const auto& [tid, ms] : after) {
    if (tid == skip_tid) continue;
    auto it = before.find(tid);
    const double grew = ms - (it == before.end() ? 0.0 : it->second);
    if (grew > best) {
      best = grew;
      owner = tid;
    }
  }
  return owner;
}

struct ConnState {
  int fd = -1;
  std::vector<uint8_t> out;
  size_t out_off = 0;
  std::vector<uint8_t> in;
  size_t in_len = 0;
};

/// Sends what the socket takes without blocking.
bool FlushSome(ConnState* c) {
  while (c->out_off < c->out.size()) {
    ssize_t n = send(c->fd, c->out.data() + c->out_off,
                     c->out.size() - c->out_off, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n <= 0) return false;
    c->out_off += static_cast<size_t>(n);
  }
  c->out.clear();
  c->out_off = 0;
  return true;
}

net::MsgType ReplyType(Kind kind) {
  switch (kind) {
    case Kind::kDistance:
      return net::MsgType::kQueryReply;
    case Kind::kTopK:
      return net::MsgType::kTopKReply;
    case Kind::kProfile:
      return net::MsgType::kProfileReply;
    case Kind::kPath:
      return net::MsgType::kPathReply;
  }
  return net::MsgType::kError;
}

struct ThreadPhase {
  std::vector<ConnState> conns;
  std::vector<uint64_t> due;       // absolute ns
  std::vector<uint32_t> pool_idx;  // request index in the traffic pool
  std::vector<uint8_t> done;
  PhaseResult result;
};

void RunThreadPhase(const Traffic& traffic, const QualityGraph* graph,
                    uint64_t end_ns, ThreadPhase* tp) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  const double cpu0 = ThreadCpuSeconds();
  const size_t m = tp->due.size();
  PhaseResult& r = tp->result;
  r.attempted = m;
  r.latency_us.assign(m, kInf);
  r.late_us.assign(m, 0.0f);
  tp->done.assign(m, 0);
  size_t next = 0;
  size_t completed = 0;
  bool end_seen = false;
  bool broken = false;
  const uint64_t give_up_ns = end_ns + 2'000'000'000ULL;
  std::vector<pollfd> pfds(tp->conns.size());

  while (completed < m && !broken) {
    uint64_t now = NowNs();
    if (!end_seen && now >= end_ns) {
      end_seen = true;
      r.outstanding_at_end = next - completed;
    }
    if (now >= give_up_ns) break;
    while (next < m && tp->due[next] <= now) {
      ConnState& c = tp->conns[next % tp->conns.size()];
      AppendRequestFrame(traffic, traffic.requests[tp->pool_idx[next]], next,
                         &c.out);
      r.late_us[next] = static_cast<float>(now - tp->due[next]) * 1e-3f;
      ++next;
    }
    for (ConnState& c : tp->conns) {
      if (!FlushSome(&c)) broken = true;
    }
    // Read whatever has arrived, then parse every complete frame.
    for (ConnState& c : tp->conns) {
      for (;;) {
        if (c.in.size() - c.in_len < 65536) c.in.resize(c.in_len + 262144);
        ssize_t n = recv(c.fd, c.in.data() + c.in_len, c.in.size() - c.in_len,
                         MSG_DONTWAIT);
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n <= 0) {
          broken = true;
          break;
        }
        c.in_len += static_cast<size_t>(n);
        if (static_cast<size_t>(n) < 65536) break;
      }
      if (c.in_len == 0) continue;
      const uint64_t read_at = NowNs();
      size_t off = 0;
      for (;;) {
        net::WireHeader header{};
        const uint8_t* payload = nullptr;
        net::FrameStatus fs =
            net::ParseFrame(c.in.data() + off, c.in_len - off,
                            net::kMaxPayloadBytes, &header, &payload);
        if (fs == net::FrameStatus::kNeedMore) break;
        if (fs != net::FrameStatus::kOk) {
          broken = true;
          break;
        }
        off += kHeaderBytes + header.payload_bytes;
        const uint64_t k = header.request_id;
        if (k >= next || tp->done[k]) {
          broken = true;  // a reply nobody asked for: the stream is corrupt
          break;
        }
        tp->done[k] = 1;
        ++completed;
        const Request& req = traffic.requests[tp->pool_idx[k]];
        if (static_cast<net::MsgType>(header.type) == net::MsgType::kError) {
          ++r.refused;
          ++r.failed;
        } else if (static_cast<net::MsgType>(header.type) !=
                       ReplyType(req.kind) ||
                   !CheckReply(traffic, req, graph,
                               {payload, header.payload_bytes})) {
          ++r.wrong;
          ++r.failed;
          if (r.wrong <= 3) {
            std::fprintf(stderr,
                         "wrong reply: kind=%d s=%u t=%u w=%g expected=%u\n",
                         static_cast<int>(req.kind), req.s, req.t,
                         static_cast<double>(req.w), req.expected);
          }
        } else {
          r.latency_us[k] =
              static_cast<float>(read_at - tp->due[k]) * 1e-3f;
        }
      }
      std::memmove(c.in.data(), c.in.data() + off, c.in_len - off);
      c.in_len -= off;
    }
    if (completed == m || broken) break;
    // Sleep until a reply arrives or the next request is due; spin when
    // that is close, so timer wakeups do not add lateness.
    now = NowNs();
    int64_t wait_ns = next < m ? static_cast<int64_t>(tp->due[next]) -
                                     static_cast<int64_t>(now)
                               : 1'000'000;
    if (wait_ns < 80'000) continue;
    for (size_t i = 0; i < tp->conns.size(); ++i) {
      pfds[i].fd = tp->conns[i].fd;
      pfds[i].events = static_cast<short>(
          POLLIN | (tp->conns[i].out.empty() ? 0 : POLLOUT));
      pfds[i].revents = 0;
    }
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    ppoll(pfds.data(), pfds.size(), &ts, nullptr);
  }
  for (size_t k = 0; k < m; ++k) {
    if (!tp->done[k]) {
      ++r.timeouts;
      ++r.failed;
    }
  }
  r.cpu_s = ThreadCpuSeconds() - cpu0;
}

}  // namespace

uint64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

std::vector<int> ConnectBalanced(uint16_t port, size_t count, int server_pid,
                                 size_t owners, int skip_tid) {
  std::vector<int> fds;
  if (server_pid <= 0 || owners <= 1) {
    for (size_t i = 0; i < count; ++i) {
      int fd = ConnectOne(port);
      if (fd < 0) {
        CloseAll(&fds);
        return fds;
      }
      fds.push_back(fd);
    }
    return fds;
  }
  const size_t per_owner = (count + owners - 1) / owners;
  std::map<int, size_t> load;
  std::vector<int> spare;  // unbalanced connections, used only as a last resort
  for (int attempt = 0; attempt < 64 && fds.size() < count; ++attempt) {
    int fd = ConnectOne(port);
    if (fd < 0) break;
    const int owner = ProbeOwner(fd, server_pid, skip_tid);
    if (owner >= 0 && load[owner] < per_owner) {
      ++load[owner];
      fds.push_back(fd);
    } else {
      spare.push_back(fd);
    }
  }
  if (fds.size() < count && !spare.empty()) {
    std::fprintf(stderr, "warning: could not balance connections over %zu "
                 "server threads\n", owners);
  }
  while (fds.size() < count && !spare.empty()) {
    fds.push_back(spare.back());
    spare.pop_back();
  }
  CloseAll(&spare);
  if (fds.size() < count) CloseAll(&fds);
  return fds;
}

void CloseAll(std::vector<int>* fds) {
  for (int fd : *fds) close(fd);
  fds->clear();
}

PhaseResult RunOpenLoop(const std::vector<int>& conns, size_t threads,
                        const Traffic& traffic, const QualityGraph* graph,
                        size_t* cursor, double rate, double seconds,
                        uint64_t seed) {
  threads = std::max<size_t>(1, std::min(threads, conns.size()));
  std::vector<ThreadPhase> phases(threads);
  for (size_t i = 0; i < conns.size(); ++i) {
    ConnState c;
    c.fd = conns[i];
    phases[i % threads].conns.push_back(std::move(c));
  }
  const uint64_t start = NowNs() + 2'000'000;
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  const size_t pool = traffic.requests.size();
  size_t max_m = 0;
  for (size_t i = 0; i < threads; ++i) {
    Rng rng(seed * 1000003ULL + i);
    const double mean_gap_ns = 1e9 * static_cast<double>(threads) / rate;
    double t = static_cast<double>(start);
    for (;;) {
      t += -std::log(1.0 - rng.NextDouble()) * mean_gap_ns;
      if (t >= static_cast<double>(end)) break;
      const size_t k = phases[i].due.size();
      phases[i].due.push_back(static_cast<uint64_t>(t));
      phases[i].pool_idx.push_back(
          static_cast<uint32_t>((*cursor + k * threads + i) % pool));
    }
    max_m = std::max(max_m, phases[i].due.size());
  }
  *cursor = (*cursor + max_m * threads) % pool;

  std::vector<std::thread> workers;
  for (size_t i = 1; i < threads; ++i) {
    workers.emplace_back(RunThreadPhase, std::cref(traffic), graph, end,
                         &phases[i]);
  }
  RunThreadPhase(traffic, graph, end, &phases[0]);
  for (std::thread& w : workers) w.join();

  PhaseResult total;
  total.seconds = seconds;
  for (ThreadPhase& tp : phases) {
    PhaseResult& r = tp.result;
    total.attempted += r.attempted;
    total.failed += r.failed;
    total.wrong += r.wrong;
    total.refused += r.refused;
    total.timeouts += r.timeouts;
    total.outstanding_at_end += r.outstanding_at_end;
    total.cpu_s += r.cpu_s;
    total.latency_us.insert(total.latency_us.end(), r.latency_us.begin(),
                            r.latency_us.end());
    total.late_us.insert(total.late_us.end(), r.late_us.begin(),
                         r.late_us.end());
    for (uint64_t due : tp.due) {
      total.due_us.push_back(static_cast<float>(due - start) * 1e-3f);
    }
  }
  return total;
}

bool WritePhase(const std::string& path, const PhaseResult& r) {
  std::ofstream out(path, std::ios::binary);
  for (const std::vector<float>* v : {&r.latency_us, &r.late_us, &r.due_us}) {
    out.write(reinterpret_cast<const char*>(v->data()),
              static_cast<std::streamsize>(v->size() * sizeof(float)));
  }
  return static_cast<bool>(out);
}

BatchResult RunBatch(const std::vector<int>& conns, size_t threads,
                     const Traffic& traffic, size_t* cursor,
                     size_t batch_size, double seconds) {
  BatchResult total;
  const std::vector<uint32_t>& ids = traffic.distance_ids;
  if (ids.empty() || conns.empty()) return total;
  threads = std::max<size_t>(1, std::min(threads, conns.size()));
  std::atomic<uint64_t> queries{0}, failed{0};
  const uint64_t start = NowNs();
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  std::atomic<size_t> next_pos{*cursor};
  auto worker = [&](size_t part) {
    std::vector<size_t> mine;
    for (size_t i = part; i < conns.size(); i += threads) mine.push_back(i);
    std::vector<std::vector<BatchQueryInput>> inflight(mine.size());
    std::vector<std::vector<uint32_t>> inflight_ids(mine.size());
    std::vector<uint8_t> frame, payload;
    uint64_t local_q = 0, local_failed = 0;
    auto send_next = [&](size_t j) {
      inflight[j].clear();
      inflight_ids[j].clear();
      const size_t pos = next_pos.fetch_add(batch_size);
      for (size_t q = 0; q < batch_size; ++q) {
        const uint32_t id = ids[(pos + q) % ids.size()];
        const Request& r = traffic.requests[id];
        inflight[j].push_back({r.s, r.t, r.w});
        inflight_ids[j].push_back(id);
      }
      frame.clear();
      net::AppendBatchRequest(&frame, pos, inflight[j]);
      return SendAll(conns[mine[j]], frame.data(), frame.size());
    };
    // One frame in flight per connection; after `end` nothing new is sent
    // and the loop ends once every reply is read, so the connections are
    // in sync for whatever runs next.
    std::vector<uint8_t> inflight_flag(mine.size(), 0);
    bool ok = true;
    for (size_t j = 0; j < mine.size() && ok; ++j) {
      ok = send_next(j);
      inflight_flag[j] = ok;
    }
    size_t active = ok ? mine.size() : 0;
    while (ok && active > 0) {
      for (size_t j = 0; j < mine.size() && ok; ++j) {
        if (!inflight_flag[j]) continue;
        net::WireHeader header{};
        if (!ReadFrame(conns[mine[j]], &header, &payload)) {
          ok = false;
          break;
        }
        uint32_t count = 0;
        if (payload.size() >= 4) std::memcpy(&count, payload.data(), 4);
        if (static_cast<net::MsgType>(header.type) !=
                net::MsgType::kBatchQueryReply ||
            count != batch_size || payload.size() != 4 + 4 * size_t{count}) {
          local_failed += batch_size;
        } else {
          for (size_t q = 0; q < count; ++q) {
            uint32_t d = 0;
            std::memcpy(&d, payload.data() + 4 + 4 * q, 4);
            if (d != traffic.requests[inflight_ids[j][q]].expected) {
              ++local_failed;
            }
          }
        }
        local_q += batch_size;
        if (NowNs() < end) {
          ok = send_next(j);
        } else {
          inflight_flag[j] = 0;
          --active;
        }
      }
    }
    queries += local_q;
    failed += local_failed + (ok ? 0 : batch_size);
  };
  std::vector<std::thread> workers;
  for (size_t i = 1; i < threads; ++i) workers.emplace_back(worker, i);
  worker(0);
  for (std::thread& w : workers) w.join();
  total.seconds = static_cast<double>(NowNs() - start) * 1e-9;
  total.queries = queries;
  total.failed = failed;
  *cursor = next_pos % ids.size();
  return total;
}

}  // namespace wcsd::perfbench
