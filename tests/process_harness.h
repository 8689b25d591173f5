#pragma once

// fork/exec harness for the multi-process cluster tests: launches N real
// `turbdb_node` processes on ephemeral loopback ports, waits until each
// accepts connections, and kills/reaps them on demand (and always on
// destruction). The node binary path is injected by the build as the
// TURBDB_NODE_BINARY compile definition.

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "cluster/topology.h"
#include "net/socket.h"

namespace turbdb {
namespace testprocs {

class NodeProcessCluster {
 public:
  /// Launches `num_nodes` turbdb_node processes forming one cluster
  /// (each knows the full peer list for direct halo fetches) and blocks
  /// until every one accepts TCP connections. `extra_args` go to every
  /// node; `per_node_args(i)`, when set, appends node-specific flags.
  static Result<std::unique_ptr<NodeProcessCluster>> Launch(
      int num_nodes, const std::string& binary,
      std::vector<std::string> extra_args = {},
      std::function<std::vector<std::string>(int)> per_node_args = {}) {
    auto cluster = std::unique_ptr<NodeProcessCluster>(
        new NodeProcessCluster());

    // Reserve one ephemeral port per node, then release them for the
    // children to bind. The window between close and exec is a classic
    // race, but these are test-local loopback ports released
    // milliseconds before use.
    {
      std::vector<net::Socket> listeners;
      for (int i = 0; i < num_nodes; ++i) {
        TURBDB_ASSIGN_OR_RETURN(net::Socket listener,
                                net::TcpListen("127.0.0.1", 0));
        TURBDB_ASSIGN_OR_RETURN(const uint16_t port,
                                net::LocalPort(listener));
        cluster->topology_.nodes.push_back(NodeAddress{"127.0.0.1", port});
        listeners.push_back(std::move(listener));
      }
      for (net::Socket& listener : listeners) listener.Close();
    }
    const std::string peers = cluster->topology_.ToString();

    for (int i = 0; i < num_nodes; ++i) {
      std::vector<std::string> args = {
          binary,
          "--node-id", std::to_string(i),
          "--bind", "127.0.0.1",
          "--port", std::to_string(cluster->topology_.nodes[i].port),
          "--peers", peers,
      };
      for (const std::string& extra : extra_args) args.push_back(extra);
      if (per_node_args) {
        for (const std::string& extra : per_node_args(i)) {
          args.push_back(extra);
        }
      }

      // Saved so Restart() can re-exec the same command line (same port,
      // same storage dir) after a kill.
      cluster->argvs_.push_back(args);
      TURBDB_ASSIGN_OR_RETURN(const pid_t pid, Spawn(binary, args));
      cluster->pids_.push_back(pid);
      cluster->binary_ = binary;
    }

    for (int i = 0; i < num_nodes; ++i) {
      TURBDB_RETURN_NOT_OK(cluster->WaitReady(i));
    }
    return cluster;
  }

  ~NodeProcessCluster() { TerminateAll(); }

  NodeProcessCluster(const NodeProcessCluster&) = delete;
  NodeProcessCluster& operator=(const NodeProcessCluster&) = delete;

  const ClusterTopology& topology() const { return topology_; }
  int num_nodes() const { return static_cast<int>(pids_.size()); }
  bool alive(int i) const { return pids_[static_cast<size_t>(i)] > 0; }

  /// Kills node `i` with `sig` and reaps it; idempotent. A frozen node
  /// is continued so that it can act on `sig`.
  void Kill(int i, int sig = SIGKILL) {
    pid_t& pid = pids_[static_cast<size_t>(i)];
    if (pid <= 0) return;
    ::kill(pid, sig);
    ::kill(pid, SIGCONT);
    int ignored = 0;
    ::waitpid(pid, &ignored, 0);
    pid = -1;
  }

  /// Stops node `i` with SIGSTOP without reaping it: it keeps its
  /// sockets but answers nothing until Kill().
  void Freeze(int i) {
    const pid_t pid = pids_[static_cast<size_t>(i)];
    if (pid > 0) ::kill(pid, SIGSTOP);
  }

  /// SIGTERM (graceful drain) + reap, every live node.
  void TerminateAll() {
    for (size_t i = 0; i < pids_.size(); ++i) {
      Kill(static_cast<int>(i), SIGTERM);
    }
  }

  /// Re-launches a killed node with its original command line (same
  /// port, same storage dir — the restart-recovery drill) and waits
  /// until it accepts connections again.
  Status Restart(int i) {
    pid_t& pid = pids_[static_cast<size_t>(i)];
    if (pid > 0) return Status::InvalidArgument("node still running");
    TURBDB_ASSIGN_OR_RETURN(pid,
                            Spawn(binary_, argvs_[static_cast<size_t>(i)]));
    return WaitReady(i);
  }

 private:
  NodeProcessCluster() = default;

  /// fork + exec of `binary` with `args`; returns the child pid.
  static Result<pid_t> Spawn(const std::string& binary,
                             std::vector<std::string> args) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      return Status::Internal("fork failed: " +
                              std::string(std::strerror(errno)));
    }
    if (pid == 0) {
      std::vector<char*> argv;
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(binary.c_str(), argv.data());
      _exit(127);  // exec failed
    }
    return pid;
  }

  /// Polls node i's port until a TCP connect succeeds (~10 s budget).
  Status WaitReady(int i) {
    const NodeAddress& address = topology_.nodes[static_cast<size_t>(i)];
    for (int attempt = 0; attempt < 200; ++attempt) {
      auto conn = net::TcpConnect(address.host, address.port,
                                  net::Deadline::After(250));
      if (conn.ok()) {
        conn->Close();
        return Status::OK();
      }
      // A child that died at startup will never listen; fail fast.
      int wstatus = 0;
      if (::waitpid(pids_[static_cast<size_t>(i)], &wstatus, WNOHANG) > 0) {
        pids_[static_cast<size_t>(i)] = -1;
        return Status::Internal("turbdb_node " + std::to_string(i) +
                                " exited during startup");
      }
      ::usleep(50 * 1000);
    }
    return Status::Unavailable("turbdb_node " + std::to_string(i) +
                               " did not start listening on " +
                               address.ToString());
  }

  ClusterTopology topology_;
  std::vector<pid_t> pids_;
  std::vector<std::vector<std::string>> argvs_;
  std::string binary_;
};

}  // namespace testprocs
}  // namespace turbdb
