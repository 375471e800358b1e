#pragma once
// gtest glue over sim/loopback.hpp for the TCP transport tests: the
// shared loopback client functions, and the loopback server fixture
// with its open() checked as a test expectation.

#include <gtest/gtest.h>

#include "sim/loopback.hpp"

namespace serve_tcp_testlib {

using archline::sim::connect_to;
using archline::sim::read_lines;
using archline::sim::send_all;
using archline::sim::wait_for_eof;

struct TcpTransport : archline::sim::LoopbackServer {
  TcpTransport(const archline::serve::ServerOptions& server_options,
               const archline::serve::TcpOptions& tcp_options)
      : LoopbackServer(server_options, tcp_options) {
    EXPECT_TRUE(opened()) << error();
  }
};

}  // namespace serve_tcp_testlib
