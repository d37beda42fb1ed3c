// Solo replays for the traced run: the calls the server makes, timed one
// module at a time outside the server, on the calling thread.
#pragma once

#include <map>
#include <string>

#include "stack.hpp"

namespace sb {

/// Per-layer metrics of the models, nn and kernels layers, by name.
std::map<std::string, double> solo_replays(Stack& stack);

}  // namespace sb
