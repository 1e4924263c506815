#include "common/io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>

namespace grs {

void write_file(const std::string& path, const std::string& body) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0666);
  if (fd < 0) throw std::runtime_error("cannot open '" + path + "' for writing");
  bool ok = true;
  for (std::size_t done = 0; ok && done < body.size();) {
    const ssize_t n = ::write(fd, body.data() + done, body.size() - done);
    if (n > 0) done += static_cast<std::size_t>(n);
    else ok = n < 0 && errno == EINTR;
  }
  // Only a regular file has a length to cut: /dev/null or a pipe does not.
  struct stat st {};
  ok = ok && ::fstat(fd, &st) == 0 &&
       (!S_ISREG(st.st_mode) || ::ftruncate(fd, static_cast<off_t>(body.size())) == 0);
  ok = ::close(fd) == 0 && ok;
  if (!ok) throw std::runtime_error("failed writing '" + path + "'");
}

}  // namespace grs
