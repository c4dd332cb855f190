#include "service/request.hpp"

#include <stdexcept>
#include <string>

namespace aimsc::service {

apps::AppInputs inputsOf(const Request& q) {
  return {q.src, q.aux1, q.aux2, q.gamma, q.upscaleFactor};
}

OutputShape outputShapeFor(const Request& q) {
  return apps::outputShapeOf(apps::appSpec(q.app), inputsOf(q));
}

void validateRequest(const Request& q) {
  const OutputShape shape = outputShapeFor(q);
  if (q.out.data() == nullptr) {
    throw std::invalid_argument("service::Request: missing output buffer");
  }
  if (q.out.width() != shape.width || q.out.height() != shape.height) {
    throw std::invalid_argument(
        "service::Request: output buffer is " + std::to_string(q.out.width()) +
        "x" + std::to_string(q.out.height()) + ", app produces " +
        std::to_string(shape.width) + "x" + std::to_string(shape.height));
  }
  if (q.streamLength == 0) {
    throw std::invalid_argument("service::Request: zero streamLength");
  }
  if (q.redundancy.replicas == 0) {
    throw std::invalid_argument("service::Request: zero replicas");
  }
}

}  // namespace aimsc::service
