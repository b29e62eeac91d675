#include "obs/json.hh"

#include <fstream>
#include <stdexcept>

namespace rigor::obs
{

void
writeTextFile(const std::string &path, std::string_view text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw std::runtime_error("cannot open '" + path +
                                 "' for writing");
    out << text;
    if (!out)
        throw std::runtime_error("write to '" + path + "' failed");
}

} // namespace rigor::obs
